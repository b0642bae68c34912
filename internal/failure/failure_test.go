package failure

import (
	"math"
	"math/rand"
	"testing"

	"ucmp/internal/core"
	"ucmp/internal/topo"
)

func fixture(t testing.TB) (*topo.Fabric, *core.PathSet) {
	t.Helper()
	f := topo.MustFabric(topo.Scaled(), "round-robin", 1)
	return f, core.BuildPathSet(f, 0.5)
}

func TestFailLinksHopOK(t *testing.T) {
	f, _ := fixture(t)
	sc := NewScenario(f)
	sc.FailLinks(0.05, rand.New(rand.NewSource(2)))
	// Find a failed link and verify HopOK rejects hops over it.
	found := false
	for tor := 0; tor < f.NumToRs && !found; tor++ {
		for sw := 0; sw < f.Uplinks && !found; sw++ {
			if sc.LinkOK(tor, sw) {
				continue
			}
			found = true
			for sl := 0; sl < f.Sched.S; sl++ {
				peer := f.Sched.PeerOf(sl, tor, sw)
				// Unless another healthy switch realizes the same pair in
				// this slice, the hop must be rejected.
				alt := false
				for sw2 := 0; sw2 < f.Uplinks; sw2++ {
					if sw2 != sw && f.Sched.PeerOf(sl, tor, sw2) == peer && sc.LinkOK(tor, sw2) && sc.LinkOK(peer, sw2) {
						alt = true
					}
				}
				if !alt && sc.HopOK(tor, peer, int64(sl)) {
					t.Fatalf("hop over failed link (%d,%d) accepted in slice %d", tor, sw, sl)
				}
			}
		}
	}
	if !found {
		t.Fatal("no link failed")
	}
}

func TestHopOKRequiresCircuit(t *testing.T) {
	f, _ := fixture(t)
	sc := NewScenario(f)
	// A hop with no circuit in that slice is invalid even when healthy.
	for sl := 0; sl < f.Sched.S; sl++ {
		nb := f.Sched.Neighbors(nil, sl, 0)
		for dst := 1; dst < f.NumToRs; dst++ {
			connected := false
			for _, p := range nb {
				if p == dst {
					connected = true
				}
			}
			if sc.HopOK(0, dst, int64(sl)) != connected {
				t.Fatalf("HopOK(0,%d,slice %d) = %v, connected = %v", dst, sl, sc.HopOK(0, dst, int64(sl)), connected)
			}
		}
	}
}

func TestPickBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if got := pick(10, 0, rng); len(got) != 0 {
		t.Fatal("zero fraction picked something")
	}
	if got := pick(10, 0.01, rng); len(got) != 1 {
		t.Fatal("nonzero fraction picked nothing")
	}
	if got := pick(10, 5.0, rng); len(got) != 10 {
		t.Fatal("overshoot not clamped")
	}
}

// ---- pick input validation (the sampling contract) ----

func TestPickRejectsGarbageFractions(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, frac := range []float64{math.NaN(), -0.5, -math.Inf(1), 0} {
		if got := pick(10, frac, rng); got != nil {
			t.Fatalf("pick(10, %v) = %v, want nil", frac, got)
		}
	}
	// Garbage fractions consume no randomness: the stream is untouched.
	want := rng.Int63()
	rng2 := rand.New(rand.NewSource(6))
	pick(10, math.NaN(), rng2)
	pick(10, -1, rng2)
	if got := rng2.Int63(); got != want {
		t.Fatal("rejected fraction consumed randomness")
	}
	if got := pick(0, 0.5, rng); got != nil {
		t.Fatal("pick over an empty universe selected something")
	}
	if got := pick(-3, 0.5, rng); got != nil {
		t.Fatal("pick over a negative universe selected something")
	}
}

func TestPickClampsOvershoot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, frac := range []float64{1.0001, 50, math.Inf(1), math.MaxFloat64} {
		if got := pick(10, frac, rng); len(got) != 10 {
			t.Fatalf("pick(10, %v) selected %d, want all 10", frac, len(got))
		}
	}
}

// TestPickCeilContract pins the rounding direction: the count is
// ceil(frac*n), so nearby small fractions stay distinguishable on small
// fabrics and any positive fraction fails at least one element.
func TestPickCeilContract(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, tc := range []struct {
		n    int
		frac float64
		want int
	}{
		{48, 0.01, 1}, {48, 0.03, 2}, {48, 0.05, 3},
		{16, 0.1, 2}, {10, 1e-9, 1}, {10, 1.0, 10},
	} {
		got := pick(tc.n, tc.frac, rng)
		if len(got) != tc.want {
			t.Fatalf("pick(%d, %v) selected %d, want ceil = %d", tc.n, tc.frac, len(got), tc.want)
		}
		seen := map[int]bool{}
		for _, i := range got {
			if i < 0 || i >= tc.n {
				t.Fatalf("pick(%d, %v) out-of-range index %d", tc.n, tc.frac, i)
			}
			if seen[i] {
				t.Fatalf("pick(%d, %v) duplicate index %d", tc.n, tc.frac, i)
			}
			seen[i] = true
		}
	}
}
