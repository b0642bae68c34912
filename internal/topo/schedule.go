package topo

import (
	"fmt"
	"math/rand"
)

// Schedule is a pre-determined, cyclically repeating circuit schedule: for
// each time slice of the cycle and each circuit switch, the ToR matching the
// switch realizes. Schedules are traffic-oblivious (§2.1).
type Schedule struct {
	// N is the number of ToRs, D the number of circuit switches (= uplinks
	// per ToR), S the number of time slices per circuit cycle.
	N, D, S int
	// Kind names the generator ("round-robin", "random", "opera",
	// "random-circulant").
	Kind string

	slices [][]Matching // [S][D] matching per slice per switch
	reconf [][]bool     // [S][D] true if switch reconfigures entering slice s
	direct [][]int32    // [N*N] cyclic slices in which pair (i,j) has a circuit

	// next is the dense next-direct table: next[(i*N+j)*S + s] is the
	// earliest cyclic slice >= s with a direct (i,j) circuit, wrapped past S
	// (value in [s, s+S)) so lookups need no branch on cycle boundaries; -1
	// marks a never-connected pair. It turns the NextDirect scan into one
	// indexed load. nil when the schedule is too large for the memory
	// budget, in which case NextDirect binary-searches the sorted per-pair
	// direct list instead.
	next []int32

	// rotSym records the verified rotation-symmetry witness (see
	// symmetry.go). When true, direct/next stay nil and the Δ-indexed
	// tables below serve the same lookups in O(S·N) memory instead of
	// O(S·N²): class δ row deltaDirect[δ] lists the cyclic slices in which
	// every pair (i, (i+δ) mod N) has a direct circuit, and deltaNext is
	// its densified next-direct table (deltaNext[δ*S+s], same wrapped
	// semantics as next).
	rotSym      bool
	deltaDirect [][]int32
	deltaNext   []int32
}

// maxDenseNextEntries caps the dense next-direct table at 32 MB (4 bytes per
// entry). Beyond that — S·N² grows cubically with N for fixed d — NextDirect
// falls back to an O(log D) binary search.
const maxDenseNextEntries = 1 << 23

// RoundRobin builds the fully reconfigurable schedule used by UCMP, VLB and
// KSP in the paper (§7.1): the N-1 matchings of a one-factorization are
// grouped d at a time into ceil((N-1)/d) slices, and every circuit switch
// reconfigures at every slice boundary. If d does not divide N-1, the final
// slice is padded with matchings from the start of the factorization, so
// every slice graph is d-regular.
//
// When N is a power of two and d is even, the matchings come from the
// rotation-symmetric difference-class construction (symmetry.go) instead of
// the circle method: same slice count, same d-regular slices, but every
// slice graph is invariant under ToR rotation, which the offline path build
// exploits to dedupe groups across (src, dst) pairs.
func RoundRobin(n, d int) *Schedule {
	if rotationSymmetricRR(n, d) {
		return symmetricRoundRobin(n, d)
	}
	rounds := ExpanderFactorization(n)
	s := (len(rounds) + d - 1) / d
	sched := &Schedule{N: n, D: d, S: s, Kind: "round-robin"}
	sched.build(func(slice, sw int) Matching {
		return rounds[(slice*d+sw)%len(rounds)]
	}, func(slice, sw int) bool { return true })
	return sched
}

// Random builds a schedule like RoundRobin but with the matchings assigned
// to slices in a pseudo-random order (used for the alternative schedule in
// Fig 16 and the "arbitrary schedules" claim of §3.2).
func Random(n, d int, seed int64) *Schedule {
	rounds := ExpanderFactorization(n)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(rounds), func(i, j int) { rounds[i], rounds[j] = rounds[j], rounds[i] })
	s := (len(rounds) + d - 1) / d
	sched := &Schedule{N: n, D: d, S: s, Kind: "random"}
	sched.build(func(slice, sw int) Matching {
		return rounds[(slice*d+sw)%len(rounds)]
	}, func(slice, sw int) bool { return true })
	return sched
}

// Opera builds Opera's native staggered schedule (§2.2, §7.1): circuit
// switch k owns every d-th matching of the factorization and holds each for
// d consecutive slices; exactly one switch reconfigures at each slice
// boundary (switch s mod d at the boundary entering slice s). The cycle is
// L*d slices with L = ceil((N-1)/d), so each pair still gets a direct
// circuit every cycle, and at any instant (d-1)/d of the circuits are
// stable.
//
// When N is a power of two and d is even >= 4, the matchings come from the
// rotation-symmetric difference-class construction (circulant.go) instead:
// the unit of reconfiguration becomes a switch pair holding one class, the
// cycle shortens to ceil((N/2)/(d/2))·(d/2) slices, and (d-2)/d of the
// circuits are stable at any instant — in exchange the schedule carries the
// verified rotation witness, so the offline build scales as O(S·N).
func Opera(n, d int) *Schedule {
	if rotationSymmetricRR(n, d) {
		return circulantOpera(n, d)
	}
	rounds := ExpanderFactorization(n)
	l := (len(rounds) + d - 1) / d
	// own[k] lists the matchings owned by switch k, padded by wrapping.
	own := make([][]Matching, d)
	for k := 0; k < d; k++ {
		own[k] = make([]Matching, l)
		for i := 0; i < l; i++ {
			own[k][i] = rounds[(i*d+k)%len(rounds)]
		}
	}
	s := l * d
	sched := &Schedule{N: n, D: d, S: s, Kind: "opera"}
	sched.build(func(slice, sw int) Matching {
		// Switch sw advances at the boundaries entering slices sw, sw+d,
		// sw+2d, ... Its index during slice `slice` is the number of
		// advances performed so far.
		adv := 0
		if slice >= sw {
			adv = (slice-sw)/d + 1
		}
		return own[sw][adv%l]
	}, func(slice, sw int) bool { return slice%d == sw })
	return sched
}

// build fills the slice tables from a matching generator and reconfiguration
// predicate, verifies the rotation-symmetry witness, and indexes direct
// circuits — per difference class when the witness holds, per pair
// otherwise.
func (s *Schedule) build(mat func(slice, sw int) Matching, rec func(slice, sw int) bool) {
	s.slices = make([][]Matching, s.S)
	s.reconf = make([][]bool, s.S)
	for sl := 0; sl < s.S; sl++ {
		s.slices[sl] = make([]Matching, s.D)
		s.reconf[sl] = make([]bool, s.D)
		for sw := 0; sw < s.D; sw++ {
			s.slices[sl][sw] = mat(sl, sw)
			s.reconf[sl][sw] = rec(sl, sw)
		}
	}
	if s.verifyRotation() {
		s.rotSym = true
		s.buildDeltaTables()
		return
	}
	s.buildPairTables()
}

// buildPairTables indexes direct circuits per (i, j) pair and densifies the
// lists into the next-direct lookup table.
func (s *Schedule) buildPairTables() {
	s.direct = make([][]int32, s.N*s.N)
	for sl := 0; sl < s.S; sl++ {
		for sw := 0; sw < s.D; sw++ {
			m := s.slices[sl][sw]
			for i := 0; i < s.N; i++ {
				j := m[i]
				if j > i {
					// Record once per slice even if two switches realize
					// the same pair in this slice.
					di := s.direct[i*s.N+j]
					if len(di) == 0 || di[len(di)-1] != int32(sl) {
						s.direct[i*s.N+j] = append(di, int32(sl))
						s.direct[j*s.N+i] = append(s.direct[j*s.N+i], int32(sl))
					}
				}
			}
		}
	}
	s.buildNextTable()
}

// buildNextTable densifies the per-pair direct lists into the next-direct
// lookup table, walking each pair's sorted list once (O(S) per pair).
func (s *Schedule) buildNextTable() {
	if s.N*s.N*s.S > maxDenseNextEntries {
		return
	}
	s.next = make([]int32, s.N*s.N*s.S)
	for pair, ds := range s.direct {
		fillNextRow(s.next[pair*s.S:(pair+1)*s.S], ds, s.S)
	}
}

// fillNextRow fills one next-direct row from a sorted direct-slice list:
// row[sl] is the earliest entry >= sl, wrapped past the cycle (value in
// [sl, sl+cycle)), or -1 throughout for an empty list.
func fillNextRow(row []int32, ds []int32, cycle int) {
	if len(ds) == 0 {
		for i := range row {
			row[i] = -1
		}
		return
	}
	// p tracks the smallest index with ds[p] >= sl while sl descends.
	p := len(ds)
	for sl := cycle - 1; sl >= 0; sl-- {
		for p > 0 && ds[p-1] >= int32(sl) {
			p--
		}
		if p < len(ds) {
			row[sl] = ds[p]
		} else {
			row[sl] = ds[0] + int32(cycle)
		}
	}
}

// MatchingAt returns the matching realized by switch sw during cyclic slice.
func (s *Schedule) MatchingAt(slice, sw int) Matching { return s.slices[slice][sw] }

// PeerOf returns the ToR connected to `tor` through switch sw in the slice.
func (s *Schedule) PeerOf(slice, tor, sw int) int { return s.slices[slice][sw][tor] }

// PeerTable returns a newly built flat copy of PeerOf for hot loops that
// walk slice adjacency (the offline DP): entry (slice*N+tor)*D + sw is
// PeerOf(slice, tor, sw), so the D circuit ends of one (slice, tor) are
// contiguous.
func (s *Schedule) PeerTable() []int32 {
	out := make([]int32, s.S*s.N*s.D)
	for sl, sws := range s.slices {
		for sw, m := range sws {
			for tor, peer := range m {
				out[(sl*s.N+tor)*s.D+sw] = int32(peer)
			}
		}
	}
	return out
}

// ReconfiguresAt reports whether switch sw reconfigures at the boundary
// entering the cyclic slice (its circuits are dark for the reconfiguration
// delay at the start of that slice).
func (s *Schedule) ReconfiguresAt(slice, sw int) bool { return s.reconf[slice][sw] }

// Neighbors appends the ToRs adjacent to `tor` in the slice graph to dst and
// returns it. Duplicate peers (two switches realizing the same pair) are
// deduplicated.
func (s *Schedule) Neighbors(dst []int, slice, tor int) []int {
	for sw := 0; sw < s.D; sw++ {
		p := s.slices[slice][sw][tor]
		dup := false
		for _, q := range dst {
			if q == p {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, p)
		}
	}
	return dst
}

// SwitchFor returns a switch whose matching connects tor and peer in the
// slice, or -1 if they are not directly connected then.
func (s *Schedule) SwitchFor(slice, tor, peer int) int {
	for sw := 0; sw < s.D; sw++ {
		if s.slices[slice][sw][tor] == peer {
			return sw
		}
	}
	return -1
}

// DirectSlices returns the cyclic slices during which ToRs a and b have a
// direct circuit. The returned slice is shared; callers must not modify it.
// Rotation-symmetric schedules serve it from the Δ-indexed class table: the
// answer depends only on (b-a) mod N.
func (s *Schedule) DirectSlices(a, b int) []int32 {
	if s.rotSym {
		return s.deltaDirect[(b-a+s.N)%s.N]
	}
	return s.direct[a*s.N+b]
}

// NextDirect returns the earliest absolute slice >= from in which a and b
// have a direct circuit. Every pair is connected at least once per cycle for
// the provided generators, so this always succeeds. O(1) via the dense
// next-direct table; O(log D) binary search over the pair's sorted direct
// list when the table exceeded its memory budget.
func (s *Schedule) NextDirect(a, b int, from int64) int64 {
	cyc := from % int64(s.S)
	base := from - cyc
	if s.deltaNext != nil {
		nx := s.deltaNext[((b-a+s.N)%s.N)*s.S+int(cyc)]
		if nx < 0 {
			panic(fmt.Sprintf("topo: pair (%d,%d) never connected", a, b))
		}
		return base + int64(nx)
	}
	if s.next != nil {
		nx := s.next[(a*s.N+b)*s.S+int(cyc)]
		if nx < 0 {
			panic(fmt.Sprintf("topo: pair (%d,%d) never connected", a, b))
		}
		return base + int64(nx)
	}
	ds := s.DirectSlices(a, b)
	if len(ds) == 0 {
		panic(fmt.Sprintf("topo: pair (%d,%d) never connected", a, b))
	}
	// ds is sorted ascending; find first >= cyc, else wrap to next cycle.
	lo, hi := 0, len(ds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int64(ds[mid]) < cyc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ds) {
		return base + int64(ds[lo])
	}
	return base + int64(s.S) + int64(ds[0])
}

// WaitSlices returns how many slices after `from` the next direct circuit
// between a and b appears (0 = this very slice). The dense table stores the
// wrapped next slice, so the wait is a single subtraction.
func (s *Schedule) WaitSlices(a, b int, from int64) int64 {
	cyc := from % int64(s.S)
	if s.deltaNext != nil {
		if nx := s.deltaNext[((b-a+s.N)%s.N)*s.S+int(cyc)]; nx >= 0 {
			return int64(nx) - cyc
		}
	}
	if s.next != nil {
		if nx := s.next[(a*s.N+b)*s.S+int(cyc)]; nx >= 0 {
			return int64(nx) - cyc
		}
	}
	return s.NextDirect(a, b, from) - from
}
