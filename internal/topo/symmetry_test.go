package topo

import "testing"

// rotationClosureRef is a brute-force reference for the witness: every edge
// of every slice, rotated by +1, must reappear somewhere in the same slice.
func rotationClosureRef(s *Schedule) bool {
	for sl := 0; sl < s.S; sl++ {
		present := make(map[[2]int]bool)
		for sw := 0; sw < s.D; sw++ {
			for i, j := range s.MatchingAt(sl, sw) {
				present[[2]int{i, j}] = true
			}
		}
		for e := range present {
			r := [2]int{(e[0] + 1) % s.N, (e[1] + 1) % s.N}
			if !present[r] {
				return false
			}
		}
	}
	return true
}

// TestRoundRobinRotationGrid: RoundRobin verifies rotation-symmetric exactly
// on the power-of-two/even-d grid, including non-dividing (n, d) pairs, and
// the slice count matches the padded circle-method formula everywhere.
func TestRoundRobinRotationGrid(t *testing.T) {
	cases := []struct {
		n, d int
		sym  bool
	}{
		{8, 4, true}, {8, 6, true}, {16, 4, true}, {16, 6, true},
		{32, 4, true}, {32, 6, true}, {64, 4, true}, {128, 8, true},
		{256, 12, true},
		// Odd d, d = 2, or non-power-of-two n fall back to the circle
		// method (d = 2 symmetric slices would be disconnected).
		{8, 2, false}, {8, 3, false}, {16, 2, false}, {16, 3, false},
		{16, 5, false}, {10, 2, false}, {12, 4, false}, {108, 6, false},
		{20, 6, false},
	}
	for _, c := range cases {
		s := RoundRobin(c.n, c.d)
		if s.Rotation() != c.sym {
			t.Errorf("RoundRobin(%d,%d).Rotation() = %v, want %v", c.n, c.d, s.Rotation(), c.sym)
		}
		if got := rotationClosureRef(s); got != s.Rotation() {
			t.Errorf("RoundRobin(%d,%d): witness %v disagrees with reference %v",
				c.n, c.d, s.Rotation(), got)
		}
		wantS := (c.n - 1 + c.d - 1) / c.d
		if s.S != wantS {
			t.Errorf("RoundRobin(%d,%d).S = %d, want %d", c.n, c.d, s.S, wantS)
		}
		// Schedule invariants hold regardless of construction: valid
		// matchings, every pair connected each cycle.
		for sl := 0; sl < s.S; sl++ {
			for sw := 0; sw < s.D; sw++ {
				if err := s.MatchingAt(sl, sw).Validate(); err != nil {
					t.Fatalf("RoundRobin(%d,%d) slice %d switch %d: %v", c.n, c.d, sl, sw, err)
				}
			}
		}
		for i := 0; i < c.n; i++ {
			for j := 0; j < c.n; j++ {
				if i != j && len(s.DirectSlices(i, j)) == 0 {
					t.Fatalf("RoundRobin(%d,%d): pair (%d,%d) never connected", c.n, c.d, i, j)
				}
			}
		}
	}
}

// darkClosureRef is a brute-force reference for the witness's second
// condition: per slice, the edges realized only by reconfiguring switches
// (dark at the slice start), rotated by +1, must reappear in the same dark
// set.
func darkClosureRef(s *Schedule) bool {
	for sl := 0; sl < s.S; sl++ {
		live := make(map[[2]int]bool)
		dark := make(map[[2]int]bool)
		for sw := 0; sw < s.D; sw++ {
			if !s.reconf[sl][sw] {
				for i, j := range s.MatchingAt(sl, sw) {
					live[[2]int{i, j}] = true
				}
			}
		}
		for sw := 0; sw < s.D; sw++ {
			if s.reconf[sl][sw] {
				for i, j := range s.MatchingAt(sl, sw) {
					if !live[[2]int{i, j}] {
						dark[[2]int{i, j}] = true
					}
				}
			}
		}
		for e := range dark {
			if !dark[[2]int{(e[0] + 1) % s.N, (e[1] + 1) % s.N}] {
				return false
			}
		}
	}
	return true
}

// TestRotationWitnessByKind: the witness is verified, not keyed on the
// generator — Random stays false even on power-of-two dimensions, Opera
// verifies true exactly when its circulant construction engages, and the
// witness always agrees with the brute-force closure references.
func TestRotationWitnessByKind(t *testing.T) {
	cases := []struct {
		name string
		s    *Schedule
		sym  bool
	}{
		{"Random(16,4,42)", Random(16, 4, 42), false},
		{"Opera(16,4)", Opera(16, 4), true},
		{"Opera(8,4)", Opera(8, 4), true},
		{"Opera(64,8)", Opera(64, 8), true},
		{"Opera(16,3)", Opera(16, 3), false},
		{"Opera(10,4)", Opera(10, 4), false},
		{"Opera(8,2)", Opera(8, 2), false},
	}
	for _, c := range cases {
		if c.s.Rotation() != c.sym {
			t.Errorf("%s.Rotation() = %v, want %v", c.name, c.s.Rotation(), c.sym)
		}
		ref := rotationClosureRef(c.s) && darkClosureRef(c.s)
		if ref != c.s.Rotation() {
			t.Errorf("%s: witness %v disagrees with reference %v", c.name, c.s.Rotation(), ref)
		}
	}
}

// TestStaggeredDarkSetBreaksWitness: edge-set closure alone is not enough.
// Reconfiguring only switch 0 of a symmetric round-robin darkens a single
// 2-coloring of a difference class — rotation maps it into the other
// coloring, so the dark set is not closed and the witness must fail even
// though every slice's edge set still rotates onto itself.
func TestStaggeredDarkSetBreaksWitness(t *testing.T) {
	src := RoundRobin(16, 4)
	if !src.Rotation() {
		t.Fatal("RoundRobin(16,4) should verify rotation-symmetric")
	}
	ref := &Schedule{N: src.N, D: src.D, S: src.S, Kind: src.Kind}
	ref.build(func(sl, sw int) Matching { return src.MatchingAt(sl, sw) },
		func(sl, sw int) bool { return sw == 0 })
	if !rotationClosureRef(ref) {
		t.Fatal("edge sets should still be rotation-closed")
	}
	if ref.Rotation() {
		t.Fatal("witness survived a rotation-breaking dark set")
	}
	if darkClosureRef(ref) {
		t.Fatal("reference disagrees: dark set should not be closed")
	}
}

// TestCirculantOpera: the difference-class Opera keeps the schedule
// invariants (valid matchings, every pair connected per cycle, connected
// slice graphs), has cycle length ceil((n/2)/(d/2))·(d/2), and reconfigures
// exactly one switch pair per boundary.
func TestCirculantOpera(t *testing.T) {
	for _, nd := range [][2]int{{8, 4}, {16, 4}, {16, 6}, {32, 4}, {64, 8}} {
		n, d := nd[0], nd[1]
		s := Opera(n, d)
		if !s.Rotation() || s.Kind != "opera" {
			t.Fatalf("Opera(%d,%d): Rotation=%v Kind=%q", n, d, s.Rotation(), s.Kind)
		}
		h := d / 2
		lp := (n/2 + h - 1) / h
		if s.S != lp*h {
			t.Fatalf("Opera(%d,%d).S = %d, want %d", n, d, s.S, lp*h)
		}
		for sl := 0; sl < s.S; sl++ {
			for sw := 0; sw < s.D; sw++ {
				if err := s.MatchingAt(sl, sw).Validate(); err != nil {
					t.Fatalf("Opera(%d,%d) slice %d switch %d: %v", n, d, sl, sw, err)
				}
				// The reconfiguration unit is the switch pair 2u, 2u+1.
				want := sl%h == sw/2
				if s.ReconfiguresAt(sl, sw) != want {
					t.Fatalf("Opera(%d,%d) slice %d switch %d: reconf %v, want %v",
						n, d, sl, sw, s.ReconfiguresAt(sl, sw), want)
				}
			}
			if diam := s.SliceGraph(sl).Diameter(); diam < 0 {
				t.Fatalf("Opera(%d,%d): slice %d graph disconnected", n, d, sl)
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && len(s.DirectSlices(i, j)) == 0 {
					t.Fatalf("Opera(%d,%d): pair (%d,%d) never connected", n, d, i, j)
				}
			}
		}
	}
}

// TestRandomCirculant: seeded circulant schedules verify the witness, keep
// connected slices and full pair coverage, reproduce bit-identically per
// seed, differ across seeds, and reject dimensions without the
// difference-class construction.
func TestRandomCirculant(t *testing.T) {
	a, err := RandomCirculant(16, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Rotation() || a.Kind != "random-circulant" {
		t.Fatalf("RandomCirculant(16,4,1): Rotation=%v Kind=%q", a.Rotation(), a.Kind)
	}
	if got := rotationClosureRef(a) && darkClosureRef(a); !got {
		t.Fatal("witness disagrees with closure references")
	}
	for sl := 0; sl < a.S; sl++ {
		if d := a.SliceGraph(sl).Diameter(); d < 0 {
			t.Fatalf("slice %d graph disconnected", sl)
		}
	}
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.N; j++ {
			if i != j && len(a.DirectSlices(i, j)) == 0 {
				t.Fatalf("pair (%d,%d) never connected", i, j)
			}
		}
	}
	b, err := RandomCirculant(16, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same seed produced different schedules")
	}
	c, err := RandomCirculant(16, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different seeds produced identical schedules")
	}
	if _, err := RandomCirculant(10, 4, 1); err == nil {
		t.Fatal("RandomCirculant(10,4) should reject non-power-of-two n")
	}
	if _, err := RandomCirculant(16, 3, 1); err == nil {
		t.Fatal("RandomCirculant(16,3) should reject odd d")
	}
}

// TestScheduleFingerprint: the digest separates dimensions, kinds, matchings
// and reconfiguration timing, and is stable across rebuilds.
func TestScheduleFingerprint(t *testing.T) {
	base := RoundRobin(16, 4)
	if base.Fingerprint() != RoundRobin(16, 4).Fingerprint() {
		t.Fatal("rebuild changed the fingerprint")
	}
	distinct := map[uint64]string{base.Fingerprint(): "RoundRobin(16,4)"}
	for _, c := range []struct {
		name string
		s    *Schedule
	}{
		{"RoundRobin(32,4)", RoundRobin(32, 4)},
		{"RoundRobin(16,6)", RoundRobin(16, 6)},
		{"Opera(16,4)", Opera(16, 4)},
		{"Random(16,4,1)", Random(16, 4, 1)},
	} {
		if prev, dup := distinct[c.s.Fingerprint()]; dup {
			t.Fatalf("%s collides with %s", c.name, prev)
		}
		distinct[c.s.Fingerprint()] = c.name
	}
	// Same matchings, different reconfiguration timing -> different digest.
	flipped := &Schedule{N: base.N, D: base.D, S: base.S, Kind: base.Kind}
	flipped.build(func(sl, sw int) Matching { return base.MatchingAt(sl, sw) },
		func(sl, sw int) bool { return false })
	if flipped.Fingerprint() == base.Fingerprint() {
		t.Fatal("reconf flags not covered by the fingerprint")
	}
}

// TestSwappedMatchingBreaksWitness: exchanging one matching between two
// slices of a symmetric schedule leaves both slices with partial difference
// classes, so re-verification must fail.
func TestSwappedMatchingBreaksWitness(t *testing.T) {
	s := RoundRobin(16, 4)
	if !s.Rotation() {
		t.Fatal("RoundRobin(16,4) should verify rotation-symmetric")
	}
	if !s.verifyRotation() {
		t.Fatal("re-verification of the untouched schedule failed")
	}
	// Swap switch 0's matching of slice 0 with switch 1's of slice 1. The
	// two halves of a difference class now live in different slices.
	m00, m11 := s.MatchingAt(0, 0), s.MatchingAt(1, 1)
	s.setMatching(0, 0, m11)
	s.setMatching(1, 1, m00)
	if s.verifyRotation() {
		t.Fatal("witness survived a cross-slice matching swap")
	}
}

// TestDeltaTablesMatchPairSemantics: the Δ-indexed lookups of a symmetric
// schedule agree with a pair-indexed rebuild of the same matchings.
func TestDeltaTablesMatchPairSemantics(t *testing.T) {
	s := RoundRobin(32, 4)
	if !s.Rotation() || s.deltaDirect == nil || s.directStart != nil {
		t.Fatalf("RoundRobin(32,4): Rotation=%v class lists=%v pair lists=%v",
			s.Rotation(), s.deltaDirect != nil, s.directStart != nil)
	}
	// Rebuild pair tables from the same matchings; the N/2 class sits on
	// two switches of its slice, which the pair lists must record once.
	ref := &Schedule{N: s.N, D: s.D, S: s.S, Kind: s.Kind}
	ref.build(func(sl, sw int) Matching { return s.MatchingAt(sl, sw) },
		func(sl, sw int) bool { return s.reconf[sl][sw] })
	ref.rotSym, ref.deltaDirect = false, nil
	ref.buildPairTables()
	for a := 0; a < s.N; a++ {
		for b := 0; b < s.N; b++ {
			if a == b {
				continue
			}
			got, want := s.DirectSlices(a, b), ref.DirectSlices(a, b)
			if len(got) != len(want) {
				t.Fatalf("DirectSlices(%d,%d) = %v, want %v", a, b, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("DirectSlices(%d,%d) = %v, want %v", a, b, got, want)
				}
			}
			for from := int64(0); from < int64(2*s.S); from++ {
				if g, w := s.NextDirect(a, b, from), ref.NextDirect(a, b, from); g != w {
					t.Fatalf("NextDirect(%d,%d,%d) = %d, want %d", a, b, from, g, w)
				}
				if g, w := s.WaitSlices(a, b, from), ref.WaitSlices(a, b, from); g != w {
					t.Fatalf("WaitSlices(%d,%d,%d) = %d, want %d", a, b, from, g, w)
				}
			}
		}
	}
}

// TestSymmetricSlicesConnected: with d >= 4 the odd-class dealing guarantees
// every slice graph of the symmetric construction is connected, which keeps
// the Appendix-B h_static diameters meaningful at scale.
func TestSymmetricSlicesConnected(t *testing.T) {
	for _, nd := range [][2]int{{16, 4}, {64, 4}, {128, 8}, {256, 8}, {1024, 8}} {
		s := RoundRobin(nd[0], nd[1])
		if !s.Rotation() {
			t.Fatalf("RoundRobin(%d,%d) not symmetric", nd[0], nd[1])
		}
		for sl := 0; sl < s.S; sl++ {
			if d := s.SliceGraph(sl).Diameter(); d < 0 {
				t.Fatalf("RoundRobin(%d,%d): slice %d graph disconnected", nd[0], nd[1], sl)
			}
		}
	}
}
