package core

import (
	"testing"

	"ucmp/internal/topo"
)

// The single-source row DP must agree exactly with the full DP.
func TestRowMatchesFullTables(t *testing.T) {
	f := topo.MustFabric(topo.Scaled(), "round-robin", 1)
	calc := NewCalculator(f)
	for ts := 0; ts < f.Sched.S; ts++ {
		full := calc.Compute(ts)
		for src := 0; src < f.Sched.N; src += 3 {
			row := calc.ComputeRow(ts, src)
			for dst := 0; dst < f.Sched.N; dst++ {
				if dst == src {
					continue
				}
				for n := 1; n <= calc.HMax; n++ {
					if got, want := row.end[n][dst], full.EndSlice(n, src, dst); got != want {
						t.Fatalf("row DP end (ts=%d n=%d %d->%d) = %d, full = %d", ts, n, src, dst, got, want)
					}
				}
			}
		}
	}
}

func TestHStaticSampledPlausible(t *testing.T) {
	// Sampled estimate on a mid-size fabric should land near the exact
	// schedule diameter.
	exact := topo.RoundRobin(108, 6).MaxDiameter()
	est := HStaticSampled(108, 6, 6, 1)
	if est < exact-2 || est > exact+2 {
		t.Fatalf("sampled h_static %d vs exact %d", est, exact)
	}
	// Large fabric: must stay small (expanders) and not panic.
	big := HStaticSampled(1200, 12, 2, 1)
	if big < 2 || big > 8 {
		t.Fatalf("h_static(1200,12) = %d implausible", big)
	}
}

func TestBoundHmaxTestbedUplinks(t *testing.T) {
	// The h_slice computation must use the uplink rate: the §8 testbed has
	// 10G uplinks under 100G downlinks.
	cfg := topo.Config{
		NumToRs: 8, Uplinks: 4, HostsPerToR: 1,
		LinkBps: 100e9, UplinkBps: 10e9,
		PropDelay:     500,
		SliceDuration: 50000,
		ReconfDelay:   1000,
		MTU:           1500,
	}
	// 1500B at 10G = 1200ns, +500 prop = 1700ns -> 29 hops per 50us slice.
	if got := cfg.HopsPerSlice(); got != 29 {
		t.Fatalf("h_slice = %d, want 29", got)
	}
}
