package metrics

import (
	"testing"

	"ucmp/internal/netsim"
	"ucmp/internal/sim"
)

func TestRecoveryExtractsCounters(t *testing.T) {
	c := netsim.Counters{
		RecoveredSameLength: 5,
		RecoveredShorter:    3,
		RecoveredLonger:     2,
		RecoveredBackup:     1,
		RecoveryFailed:      4,
		FaultDrops:          7,
	}
	c.RerouteWait[0] = 10
	c.RerouteWait[3] = 10
	r := Recovery(c)
	if r.Recovered() != 11 || r.Total() != 15 || r.FaultDrops != 7 {
		t.Fatalf("recovered=%d total=%d faultdrops=%d", r.Recovered(), r.Total(), r.FaultDrops)
	}
	if r.SameLength != 5 || r.Shorter != 3 || r.Longer != 2 || r.Backup != 1 || r.Failed != 4 {
		t.Fatalf("per-class counts %+v", r)
	}
}

func TestRecoveryZeroIsEmpty(t *testing.T) {
	var r RecoveryStats
	if r.Total() != 0 {
		t.Fatal("zero stats not empty")
	}
	if r.WaitPercentile(0.99) != 0 {
		t.Fatal("empty histogram has a percentile")
	}
	if r.WaitHistogram() != "(empty)" {
		t.Fatalf("empty histogram renders %q", r.WaitHistogram())
	}
}

func TestWaitPercentileAndHistogram(t *testing.T) {
	var r RecoveryStats
	r.Wait[0] = 90 // <1µs
	r.Wait[6] = 9  // [32,64)µs
	r.Wait[netsim.RerouteWaitBuckets-1] = 1
	if got := r.WaitPercentile(0.5); got != sim.Microsecond {
		t.Fatalf("p50 = %v, want 1µs bucket edge", got)
	}
	if got := r.WaitPercentile(0.95); got != 64*sim.Microsecond {
		t.Fatalf("p95 = %v, want 64µs bucket edge", got)
	}
	// p100 lands in the open-ended last bucket.
	if got := r.WaitPercentile(1.0); got != waitBucketHi(netsim.RerouteWaitBuckets-1) {
		t.Fatalf("p100 = %v", got)
	}
	h := r.WaitHistogram()
	want := "<1µs:90 [32,64)µs:9 >=8192µs:1"
	if h != want {
		t.Fatalf("histogram %q, want %q", h, want)
	}
}
