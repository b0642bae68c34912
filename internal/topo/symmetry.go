package topo

// Rotation symmetry: a schedule is rotation-symmetric when every slice's
// edge set is invariant under the ToR relabeling i -> (i+1) mod N (and hence
// under every rotation i -> (i+k) mod N). For such schedules the whole
// offline routing problem is vertex-transitive: the UCMP group for
// (t_start, src, dst) is a hop-relabeling of the canonical group for
// (t_start, 0, (dst-src) mod N), which is what lets core dedupe the O(S·N²)
// group spine down to O(S·N) canonical rows (DESIGN.md §12).
//
// The symmetric round-robin construction below realizes this for N a power
// of two and even d >= 4. The building block is the difference class
// Δ(δ) = {{i, (i+δ) mod N}}: each class is rotation-invariant by definition,
// so any slice whose edge set is a union of whole classes is too. A class
// with δ < N/2 decomposes into exactly two perfect matchings by 2-coloring
// its cycles i -> i+δ (every cycle has even length N/gcd(δ,N) because N is a
// power of two); the δ = N/2 class is itself a single matching, which the
// construction assigns to both switches of its unit (a duplicated pair is
// harmless: direct-circuit indexing dedupes it). One "unit" = one class =
// two switch-matchings, so a slice holds d/2 units and the cycle needs
// S = ceil((N/2)/(d/2)) = ceil(N/d) slices — the same count as the padded
// circle-method schedule for even N and even d, so no downstream S pins move.

// rotationSymmetricRR reports whether RoundRobin(n, d) uses the
// rotation-symmetric difference-class construction instead of the circle
// method: n a power of two (>= 4) and d even with d >= 4. d = 2 is
// excluded: a slice then holds a single difference class, and the classes
// with even δ yield disconnected slice graphs, which the per-slice routing
// baselines (KSP, Opera) cannot tolerate — those fabrics keep the circle
// method.
func rotationSymmetricRR(n, d int) bool {
	return n >= 4 && n&(n-1) == 0 && d >= 4 && d%2 == 0
}

// symmetricRoundRobin builds the difference-class round-robin schedule.
func symmetricRoundRobin(n, d int) *Schedule {
	h := d / 2 // units per slice
	u := n / 2 // total units (difference classes)
	order := symmetricUnitOrder(n, h)
	units := make([][2]Matching, u+1) // indexed by delta, built lazily
	s := (u + h - 1) / h
	sched := &Schedule{N: n, D: d, S: s, Kind: "round-robin"}
	sched.build(func(slice, sw int) Matching {
		// Unit j of a slice occupies switches 2j and 2j+1; the final slice
		// wraps whole units from the start of the order as padding.
		delta := order[(slice*h+sw/2)%u]
		if units[delta][0] == nil {
			a, b := differenceMatchings(n, delta)
			units[delta] = [2]Matching{a, b}
		}
		return units[delta][sw%2]
	}, func(slice, sw int) bool { return true })
	return sched
}

// differenceMatchings splits difference class δ into its two perfect
// matchings by alternately coloring the edges along each cycle of the
// permutation i -> (i+δ) mod n. Requires every cycle length n/gcd(δ,n) to be
// even (guaranteed for n a power of two). For δ = n/2 the cycles have length
// two and both colors land on the same edge, so a == b: the class is a
// single matching, returned twice.
func differenceMatchings(n, delta int) (a, b Matching) {
	a = make(Matching, n)
	b = make(Matching, n)
	visited := make([]bool, n)
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		i, color := start, 0
		for {
			visited[i] = true
			j := (i + delta) % n
			if color == 0 {
				a[i], a[j] = j, i
			} else {
				b[i], b[j] = j, i
			}
			color ^= 1
			i = j
			if i == start {
				break
			}
		}
	}
	return a, b
}

// symmetricUnitOrder orders the difference classes 1..n/2 across slices.
// Two goals: slice graphs should look like random circulant graphs (so the
// expander-ish diameter assumptions of Appendix B keep holding), and every
// slice should contain at least one odd δ whenever supply allows (a
// circulant graph on Z_n with n a power of two is connected iff one of its
// differences is odd). Odd and even classes are each shuffled by a
// deterministic LCG, then the odd classes are dealt round-robin across the
// slice blocks before the even classes fill the remaining slots; with
// d >= 4 there are at least as many odd classes as slices, so every slice
// graph is connected.
func symmetricUnitOrder(n, h int) []int {
	return circulantUnitOrder(n, h, 0xC2B2AE3D27D4EB4F, 0x9E3779B97F4A7C15)
}

// circulantUnitOrder is symmetricUnitOrder with caller-chosen shuffle seeds,
// shared with RandomCirculant (which mixes a user seed into them). The fixed
// seeds above keep RoundRobin's schedules bit-identical across builds.
func circulantUnitOrder(n, h int, oddSeed, evenSeed uint64) []int {
	u := n / 2
	s := (u + h - 1) / h
	odds, evens := splitDifferenceClasses(n)
	lcgShuffle(odds, oddSeed)
	lcgShuffle(evens, evenSeed)
	caps := make([]int, s)
	for b := range caps {
		caps[b] = h
	}
	caps[s-1] = u - (s-1)*h
	blocks := make([][]int, s)
	bi := 0
	for _, delta := range odds {
		for len(blocks[bi]) >= caps[bi] {
			bi = (bi + 1) % s
		}
		blocks[bi] = append(blocks[bi], delta)
		bi = (bi + 1) % s
	}
	for _, delta := range evens {
		for len(blocks[bi]) >= caps[bi] {
			bi = (bi + 1) % s
		}
		blocks[bi] = append(blocks[bi], delta)
	}
	order := make([]int, 0, u)
	for _, b := range blocks {
		order = append(order, b...)
	}
	return order
}

// lcgShuffle is a deterministic Fisher-Yates driven by a 64-bit LCG, so
// schedules stay reproducible without threading a seed through call sites.
func lcgShuffle(xs []int, seed uint64) {
	state := seed
	for i := len(xs) - 1; i > 0; i-- {
		state = state*6364136223846793005 + 1442695040888963407
		j := int(state % uint64(i+1))
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// verifyRotation checks — it never assumes — two closure properties per
// slice, each under the ToR relabeling i -> (i+1) mod N (closure under +1 on
// a finite edge set implies closure under every rotation):
//
//  1. the slice's full edge set is closed, which makes the offline DP
//     rotation-equivariant (it reads only connectivity); and
//  2. the subset of edges dark at the slice start — edges realized only by
//     switches that reconfigure entering the slice — is closed, which makes
//     the physical fabric rotation-symmetric too: a relabeled circuit waits
//     out exactly the reconfiguration delay its canonical copy does.
//
// Condition 2 generalizes the earlier uniform-reconfiguration requirement
// (all switches of a slice sharing one flag trivially yields dark = full
// set): Opera-style staggered schedules reconfigure one unit per boundary,
// and they verify iff each boundary darkens whole difference classes.
// O(S·N·D) with three transient N²-bit sets.
func (s *Schedule) verifyRotation() bool {
	n := s.N
	words := (n*n + 63) / 64
	all := make([]uint64, words)  // every edge of the slice
	live := make([]uint64, words) // edges kept by a non-reconfiguring switch
	dark := make([]uint64, words) // edges served only by reconfiguring switches
	for sl := 0; sl < s.S; sl++ {
		for i := range all {
			all[i], live[i], dark[i] = 0, 0, 0
		}
		for sw := 0; sw < s.D; sw++ {
			rec := s.reconf[sl][sw]
			for i := 0; i < n; i++ {
				id := i*n + s.PeerOf(sl, i, sw)
				all[id>>6] |= 1 << (id & 63)
				if !rec {
					live[id>>6] |= 1 << (id & 63)
				}
			}
		}
		for sw := 0; sw < s.D; sw++ {
			if !s.reconf[sl][sw] {
				continue
			}
			for i := 0; i < n; i++ {
				id := i*n + s.PeerOf(sl, i, sw)
				if live[id>>6]&(1<<(id&63)) == 0 {
					dark[id>>6] |= 1 << (id & 63)
				}
			}
		}
		for sw := 0; sw < s.D; sw++ {
			for i := 0; i < n; i++ {
				j := s.PeerOf(sl, i, sw)
				id := i*n + j
				rid := ((i+1)%n)*n + (j+1)%n
				if all[rid>>6]&(1<<(rid&63)) == 0 {
					return false
				}
				if dark[id>>6]&(1<<(id&63)) != 0 && dark[rid>>6]&(1<<(rid&63)) == 0 {
					return false
				}
			}
		}
	}
	return true
}

// buildDeltaTables indexes direct circuits per difference class instead of
// per pair: rotation symmetry makes DirectSlices(a, b) a function of
// (b-a) mod N alone, collapsing the N² pair lists to N. Only called after
// verifyRotation succeeded; class δ is present in a slice iff ToR 0 has
// neighbor δ there.
func (s *Schedule) buildDeltaTables() {
	s.deltaDirect = make([][]int32, s.N)
	for sl := 0; sl < s.S; sl++ {
		for sw := 0; sw < s.D; sw++ {
			j := s.PeerOf(sl, 0, sw)
			dd := s.deltaDirect[j]
			if len(dd) == 0 || dd[len(dd)-1] != int32(sl) {
				s.deltaDirect[j] = append(dd, int32(sl))
			}
		}
	}
}

// Rotation reports whether the schedule is rotation-symmetric: every
// slice's edge set — and its dark-at-slice-start subset — is invariant
// under the ToR relabeling i -> (i+1) mod N (hence under all rotations).
// The witness is verified from the built matchings and reconfiguration
// flags at construction time, never assumed from the generator kind:
// RoundRobin and Opera on a power-of-two N with even d >= 4 verify true
// (circulant constructions), as does RandomCirculant; the circle-method
// fallbacks and Random verify false.
func (s *Schedule) Rotation() bool { return s.rotSym }
