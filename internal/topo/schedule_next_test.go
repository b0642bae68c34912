package topo

import "testing"

// nextDirectLinear is the original linear-scan NextDirect, kept as the
// reference implementation the binary search is verified against.
func (s *Schedule) nextDirectLinear(a, b int, from int64) int64 {
	ds := s.DirectSlices(a, b)
	if len(ds) == 0 {
		panic("topo: pair never connected")
	}
	cyc := from % int64(s.S)
	base := from - cyc
	for _, d := range ds {
		if int64(d) >= cyc {
			return base + int64(d)
		}
	}
	return base + int64(s.S) + int64(ds[0])
}

// testSchedules covers every generator and both kinds of direct-slice list:
// circle-method round-robin, shuffled Random and staggered Opera (per-pair
// lists) and a random circulant (per-difference-class lists).
func testSchedules() map[string]*Schedule {
	rc, err := RandomCirculant(16, 4, 7)
	if err != nil {
		panic(err)
	}
	return map[string]*Schedule{
		"round-robin":      RoundRobin(10, 3),
		"random":           Random(10, 3, 7),
		"opera":            Opera(10, 3),
		"random-circulant": rc,
	}
}

// TestNextDirectMatchesLinear cross-checks NextDirect and WaitSlices against
// the linear scan for every pair and for starting points spanning several
// cycles, including wrap-around within the first cycle.
func TestNextDirectMatchesLinear(t *testing.T) {
	for kind, s := range testSchedules() {
		for a := 0; a < s.N; a++ {
			for b := 0; b < s.N; b++ {
				if a == b {
					continue
				}
				for from := int64(0); from < int64(3*s.S); from++ {
					want := s.nextDirectLinear(a, b, from)
					if got := s.NextDirect(a, b, from); got != want {
						t.Fatalf("%s: NextDirect(%d,%d,%d)=%d want %d", kind, a, b, from, got, want)
					}
					if got := s.WaitSlices(a, b, from); got != want-from {
						t.Fatalf("%s: WaitSlices(%d,%d,%d)=%d want %d", kind, a, b, from, got, want-from)
					}
				}
			}
		}
	}
}

// TestNextDirectWrapAround pins the cycle boundary case: asking just past a
// pair's last direct slice of the cycle must land on its first slice of the
// next cycle.
func TestNextDirectWrapAround(t *testing.T) {
	scheds := testSchedules()
	scheds["round-robin 8x2"] = RoundRobin(8, 2)
	for kind, s := range scheds {
		for a := 0; a < s.N; a++ {
			for b := 0; b < s.N; b++ {
				if a == b {
					continue
				}
				ds := s.DirectSlices(a, b)
				// Just past the pair's last appearance: the answer is its first
				// slice of the next cycle (also right when the last appearance
				// closes the cycle and from is already the next cycle's slice 0).
				from := int64(ds[len(ds)-1]) + 1
				want := int64(s.S) + int64(ds[0])
				if got := s.NextDirect(a, b, from); got != want {
					t.Fatalf("%s: NextDirect(%d,%d,%d)=%d want %d (direct=%v)", kind, a, b, from, got, want, ds)
				}
			}
		}
	}
}

// TestNextDirectFarFuture checks starting points many cycles in: the cyclic
// decomposition must hold for arbitrary absolute slices.
func TestNextDirectFarFuture(t *testing.T) {
	scheds := testSchedules()
	scheds["opera 8x2"] = Opera(8, 2)
	for kind, s := range scheds {
		for _, from := range []int64{int64(10*s.S) + 3, int64(1000*s.S) + int64(s.S) - 1, 1 << 40} {
			for a := 0; a < s.N; a++ {
				for b := 0; b < s.N; b++ {
					if a == b {
						continue
					}
					want := s.nextDirectLinear(a, b, from)
					if got := s.NextDirect(a, b, from); got != want {
						t.Fatalf("%s: NextDirect(%d,%d,%d)=%d want %d", kind, a, b, from, got, want)
					}
					if w := s.WaitSlices(a, b, from); w != want-from {
						t.Fatalf("%s: WaitSlices(%d,%d,%d)=%d want %d", kind, a, b, from, w, want-from)
					}
				}
			}
		}
	}
}
