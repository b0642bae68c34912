package topo

import (
	"fmt"
	"math/rand"
	"slices"
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

	reconf [][]bool // [S][D] true if switch reconfigures entering slice s

	// peers holds every slice's matchings, flattened: entry
	// (slice*N+tor)*D + sw is PeerOf(slice, tor, sw), so the D circuit
	// ends of one (slice, tor) are contiguous.
	peers []int32

	// directSlices[directStart[i*N+j]:directStart[i*N+j+1]] lists, ascending,
	// the cyclic slices in which pair (i, j) has a direct circuit: one
	// offsets array and one slices array for all N² pairs.
	directStart  []int32
	directSlices []int32

	// rotSym records the verified rotation-symmetry witness (see
	// symmetry.go). When true, the pair lists stay nil and class δ row
	// deltaDirect[δ] lists the cyclic slices in which every pair
	// (i, (i+δ) mod N) has a direct circuit: O(S·N) memory instead of
	// O(S·N²).
	rotSym      bool
	deltaDirect [][]int32
}

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

// build fills the peer table and reconfiguration flags from a matching
// generator and reconfiguration predicate, verifies the rotation-symmetry
// witness, and indexes direct circuits — per difference class when the
// witness holds, per pair otherwise.
func (s *Schedule) build(mat func(slice, sw int) Matching, rec func(slice, sw int) bool) {
	s.reconf = make([][]bool, s.S)
	s.peers = make([]int32, s.S*s.N*s.D)
	for sl := 0; sl < s.S; sl++ {
		s.reconf[sl] = make([]bool, s.D)
		for sw := 0; sw < s.D; sw++ {
			s.setMatching(sl, sw, mat(sl, sw))
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

// buildPairTables indexes direct circuits per (i, j) pair: a counting pass
// sizes every pair's list, a second pass fills them in ascending slice
// order. A pair two switches realize in one slice is recorded once.
func (s *Schedule) buildPairTables() {
	n := s.N
	s.directStart = make([]int32, n*n+1)
	last := make([]int32, n*n) // the last slice counted per pair, then the fill cursor
	for p := range last {
		last[p] = -1
	}
	s.eachCircuit(func(sl, p int) {
		if last[p] != int32(sl) {
			last[p] = int32(sl)
			s.directStart[p+1]++
		}
	})
	for p := 0; p < n*n; p++ {
		s.directStart[p+1] += s.directStart[p]
	}
	s.directSlices = make([]int32, s.directStart[n*n])
	copy(last, s.directStart[:n*n])
	s.eachCircuit(func(sl, p int) {
		if at := last[p]; at == s.directStart[p] || s.directSlices[at-1] != int32(sl) {
			s.directSlices[at] = int32(sl)
			last[p]++
		}
	})
}

// eachCircuit calls f(slice, i*N+j) for every circuit end (i, j) of the
// schedule, in ascending slice order.
func (s *Schedule) eachCircuit(f func(sl, pair int)) {
	for at, j := range s.peers {
		i := at / s.D
		f(i/s.N, i%s.N*s.N+int(j))
	}
}

// setMatching writes switch sw's matching of cyclic slice sl into the peer
// table.
func (s *Schedule) setMatching(sl, sw int, m Matching) {
	for tor, peer := range m {
		s.peers[(sl*s.N+tor)*s.D+sw] = int32(peer)
	}
}

// MatchingAt returns the matching realized by switch sw during cyclic slice,
// newly built from the peer table.
func (s *Schedule) MatchingAt(slice, sw int) Matching {
	m := make(Matching, s.N)
	for tor := range m {
		m[tor] = s.PeerOf(slice, tor, sw)
	}
	return m
}

// PeerOf returns the ToR connected to `tor` through switch sw in the slice.
func (s *Schedule) PeerOf(slice, tor, sw int) int { return int(s.peers[(slice*s.N+tor)*s.D+sw]) }

// Peers returns the schedule's flat peer table: entry (slice*N+tor)*D + sw
// is PeerOf(slice, tor, sw), so the D circuit ends of one (slice, tor) are
// contiguous. Shared and read-only.
func (s *Schedule) Peers() []int32 { return s.peers }

// ReconfiguresAt reports whether switch sw reconfigures at the boundary
// entering the cyclic slice (its circuits are dark for the reconfiguration
// delay at the start of that slice).
func (s *Schedule) ReconfiguresAt(slice, sw int) bool { return s.reconf[slice][sw] }

// Neighbors appends the ToRs adjacent to `tor` in the slice graph to dst and
// returns it. Duplicate peers (two switches realizing the same pair) are
// deduplicated.
func (s *Schedule) Neighbors(dst []int, slice, tor int) []int {
	for sw := 0; sw < s.D; sw++ {
		p := s.PeerOf(slice, tor, sw)
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
		if s.PeerOf(slice, tor, sw) == peer {
			return sw
		}
	}
	return -1
}

// DirectSlices returns the cyclic slices, ascending, during which ToRs a and
// b have a direct circuit. The returned slice is shared; callers must not
// modify it. Rotation-symmetric schedules serve it from the Δ-indexed class
// table: the answer depends only on (b-a) mod N.
func (s *Schedule) DirectSlices(a, b int) []int32 {
	if s.rotSym {
		return s.deltaDirect[(b-a+s.N)%s.N]
	}
	p := a*s.N + b
	lo, hi := s.directStart[p], s.directStart[p+1]
	return s.directSlices[lo:hi:hi]
}

// NextDirect returns the earliest absolute slice >= from in which a and b
// have a direct circuit: one binary search over DirectSlices(a, b). Every
// pair is connected at least once per cycle for the provided generators, so
// this always succeeds.
func (s *Schedule) NextDirect(a, b int, from int64) int64 {
	ds := s.DirectSlices(a, b)
	if len(ds) == 0 {
		panic(fmt.Sprintf("topo: pair (%d,%d) never connected", a, b))
	}
	cyc := from % int64(s.S)
	if i, _ := slices.BinarySearch(ds, int32(cyc)); i < len(ds) {
		return from - cyc + int64(ds[i])
	}
	return from - cyc + int64(s.S) + int64(ds[0])
}

// WaitSlices returns how many slices after `from` the next direct circuit
// between a and b appears (0 = this very slice).
func (s *Schedule) WaitSlices(a, b int, from int64) int64 {
	return s.NextDirect(a, b, from) - from
}
