package topo

import "fmt"

// Circulant schedule family beyond round-robin (DESIGN.md §14): any schedule
// whose slices are unions of whole difference classes Δ(δ) = {{i, (i+δ) mod
// N}} — and whose reconfiguration boundaries darken whole classes — passes
// the verified rotation witness, so the §12 canonical O(S·N) offline build
// and the relabel-on-serve path apply. Two members live here:
//
//   - circulantOpera: Opera's staggered rotor schedule rebuilt from
//     difference classes (used by Opera() when the dimensions admit it);
//   - RandomCirculant: the symmetric round-robin construction with a
//     seed-dependent class order, the circulant analogue of Random.

// splitDifferenceClasses partitions the classes 1..n/2 by parity of δ. Odd
// classes matter for connectivity: a circulant graph on Z_n with n a power
// of two is connected iff one of its differences is odd (gcd(δ, n) = 1).
func splitDifferenceClasses(n int) (odds, evens []int) {
	for delta := 1; delta <= n/2; delta++ {
		if delta%2 == 1 {
			odds = append(odds, delta)
		} else {
			evens = append(evens, delta)
		}
	}
	return odds, evens
}

// circulantOpera builds Opera's staggered schedule from difference classes,
// for n a power of two and even d >= 4 (Opera() falls back to the
// circle-method construction otherwise). The unit of reconfiguration is a
// switch pair: unit u = switches 2u and 2u+1 jointly hold both perfect
// matchings of one class, so a boundary always darkens a whole class and the
// dark set stays rotation-closed — the price is (d-2)/d of the circuits
// stable at any instant instead of the circle-method Opera's (d-1)/d.
//
// With h = d/2 units, unit u reconfigures entering slices ≡ u (mod h) and
// holds each class for h consecutive slices; each unit owns lp =
// ceil((n/2)/h) classes, so the cycle is S = lp·h slices and every pair gets
// a direct circuit each cycle. Unit 0 owns only odd classes (there are n/4
// >= lp of them for d >= 4), so every slice graph contains a whole odd class
// and is connected. Leftover odd classes and the even classes are dealt
// round-robin to units 1..h-1, wrapping when the counts don't divide — a
// class duplicated within a slice is harmless (direct-circuit indexing
// dedupes it, and the duplicate keeps the dark set a union of whole
// classes).
func circulantOpera(n, d int) *Schedule {
	h := d / 2
	u := n / 2
	lp := (u + h - 1) / h
	own := circulantOperaOwners(n, h, lp)
	units := make([][2]Matching, u+1) // indexed by delta, built lazily
	sched := &Schedule{N: n, D: d, S: lp * h, Kind: "opera"}
	sched.build(func(slice, sw int) Matching {
		// Unit sw/2 advances at the boundaries entering slices sw/2,
		// sw/2 + h, sw/2 + 2h, ...; its class index during `slice` is the
		// number of advances performed so far.
		unit := sw / 2
		adv := 0
		if slice >= unit {
			adv = (slice-unit)/h + 1
		}
		delta := own[unit][adv%lp]
		if units[delta][0] == nil {
			a, b := differenceMatchings(n, delta)
			units[delta] = [2]Matching{a, b}
		}
		return units[delta][sw%2]
	}, func(slice, sw int) bool { return slice%h == sw/2 })
	return sched
}

// circulantOperaOwners assigns the n/2 difference classes to the h units:
// unit 0 gets lp shuffled odd classes, the rest are dealt round-robin to
// units 1..h-1, cycling past the end of the pool when h·lp > n/2 (the
// wrap-padding duplicates at most h-1 classes).
func circulantOperaOwners(n, h, lp int) [][]int {
	odds, evens := splitDifferenceClasses(n)
	lcgShuffle(odds, 0xA0761D6478BD642F)
	lcgShuffle(evens, 0xE7037ED1A0B428DB)
	own := make([][]int, h)
	own[0] = odds[:lp]
	rest := append(odds[lp:], evens...)
	if len(rest) == 0 {
		rest = odds // degenerate (d >= n): re-deal odd classes
	}
	for k := 1; k < h; k++ {
		own[k] = make([]int, lp)
		for i := 0; i < lp; i++ {
			own[k][i] = rest[(i*(h-1)+k-1)%len(rest)]
		}
	}
	return own
}

// RandomCirculant builds a rotation-symmetric round-robin-style schedule
// with a seed-dependent difference-class order: same slice count and
// d-regular slices as the symmetric RoundRobin, but the classes are dealt
// from seed-mixed shuffles, giving an arbitrary member of the circulant
// family per seed (the odd-class round-robin dealing still guarantees every
// slice graph is connected). Errors when the dimensions do not admit the
// difference-class construction — unlike RoundRobin there is no circle-
// method fallback to hide behind.
func RandomCirculant(n, d int, seed int64) (*Schedule, error) {
	if !rotationSymmetricRR(n, d) {
		return nil, fmt.Errorf("topo: random-circulant requires power-of-two n >= 4 and even d >= 4, got (%d,%d)", n, d)
	}
	h := d / 2
	order := circulantUnitOrder(n, h, mixSeed(seed, 0xC2B2AE3D27D4EB4F), mixSeed(seed, 0x9E3779B97F4A7C15))
	units := make([][2]Matching, n/2+1)
	s := (n/2 + h - 1) / h
	sched := &Schedule{N: n, D: d, S: s, Kind: "random-circulant"}
	sched.build(func(slice, sw int) Matching {
		delta := order[(slice*h+sw/2)%(n/2)]
		if units[delta][0] == nil {
			a, b := differenceMatchings(n, delta)
			units[delta] = [2]Matching{a, b}
		}
		return units[delta][sw%2]
	}, func(slice, sw int) bool { return true })
	return sched, nil
}

// mixSeed folds a user seed into a shuffle-seed constant (splitmix64
// finalizer), so distinct seeds produce unrelated class orders while seed 0
// stays distinct from the fixed RoundRobin order.
func mixSeed(seed int64, salt uint64) uint64 {
	z := uint64(seed) + salt + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
