package core

import (
	"math"
	"math/rand"

	"ucmp/internal/topo"
)

// DefaultUnvisitedThreshold is the probability threshold on P(unvisited
// ToRs) used to pick S, the maximum number of slices the globally fastest
// path spans (Appendix B). The paper's prose says 10^-1, but its own Table 3
// values ((108,6)->S=5, (324,6)->S=6) and Fig 14's axis (down to 10^-12)
// are only consistent with a threshold around 1e-10, which we adopt and
// which reproduces Table 3 exactly.
const DefaultUnvisitedThreshold = 1e-10

// PUnvisited returns P(unvisited ToRs) after c time slices in an RDCN with
// n ToRs and d uplinks (Appendix B, Eqn. 5-6): throwing M = d^c balls into
// n bins,
//
//	P = 1 - [1 - (1-1/n)^M]^n.
//
// Computed in log space so values down to ~1e-300 are meaningful (Fig 14).
func PUnvisited(n, d, c int) float64 {
	m := math.Pow(float64(d), float64(c))
	// pOne = (1-1/n)^M
	logPOne := m * math.Log1p(-1.0/float64(n))
	pOne := math.Exp(logPOne)
	// P = 1 - (1-pOne)^n = -expm1(n*log1p(-pOne))
	return -math.Expm1(float64(n) * math.Log1p(-pOne))
}

// SpanSlices returns S: the smallest number of slices c such that
// P(unvisited ToRs) drops below the threshold.
func SpanSlices(n, d int, threshold float64) int {
	for c := 1; ; c++ {
		if PUnvisited(n, d, c) < threshold {
			return c
		}
		if c > 64 {
			// d >= 2 drives P to zero double-exponentially; this is
			// unreachable for any sane configuration.
			return c
		}
	}
}

// HmaxBound is the result of the Appendix B analysis for one configuration.
type HmaxBound struct {
	N, D    int
	HSlice  int  // max hops per slice, from propagation+transmission delay
	HStatic int  // max topology-instance diameter across the cycle
	CaseI   bool // h_slice >= h_static: fastest path fits in one slice
	S       int  // only meaningful in case II
	Q       int  // Q(h_max), the upper bound used by the path algorithm
}

// BoundHmax computes Q(h_max) for a configuration and schedule following
// Appendix B. Case I (h_slice >= h_static): Q = h_static. Case II: Q =
// h_slice × S with S from the balls-into-bins analysis.
func BoundHmax(cfg topo.Config, sched *topo.Schedule) HmaxBound {
	b := HmaxBound{N: cfg.NumToRs, D: cfg.Uplinks}
	b.HSlice = cfg.HopsPerSlice()
	b.HStatic = scheduleHStatic(sched)
	if b.HSlice >= b.HStatic {
		b.CaseI = true
		b.Q = b.HStatic
		return b
	}
	b.S = SpanSlices(cfg.NumToRs, cfg.Uplinks, DefaultUnvisitedThreshold)
	b.Q = b.HSlice * b.S
	return b
}

// scheduleHStatic returns h_static: the maximum per-slice diameter. For
// small fabrics it is exact; for large ones (where exact all-pairs BFS per
// slice would dominate offline cost) it uses a multi-sweep eccentricity
// estimate, which is tight on the expander-like slice graphs RDCNs use.
func scheduleHStatic(s *topo.Schedule) int {
	if s.Rotation() {
		// Rotation-symmetric slices are circulant graphs, hence
		// vertex-transitive: every vertex has the same eccentricity, so one
		// BFS from ToR 0 per slice yields the exact diameter at any scale.
		max, dist, queue := 0, make([]int, s.N), make([]int, 0, s.N)
		g := &topo.Graph{N: s.N, Adj: make([][]int, s.N)} // refilled per slice
		for sl := 0; sl < s.S; sl++ {
			for i := range g.Adj {
				g.Adj[i] = s.Neighbors(g.Adj[i][:0], sl, i)
			}
			_, ecc := farthest(g, 0, dist, queue)
			if ecc < 0 {
				return s.N // disconnected: conservative bound
			}
			if ecc > max {
				max = ecc
			}
		}
		return max
	}
	if s.N <= 512 {
		return s.MaxDiameter()
	}
	rng := rand.New(rand.NewSource(1))
	max := 0
	for sl := 0; sl < s.S; sl++ {
		g := s.SliceGraph(sl)
		if d := estimateDiameter(g, rng, 6); d > max {
			max = d
		}
	}
	return max
}

// estimateDiameter runs the double-sweep heuristic from several random
// seeds: BFS from a seed, then BFS again from the farthest node found,
// keeping the largest eccentricity seen. On expanders this matches the true
// diameter with very high probability.
func estimateDiameter(g *topo.Graph, rng *rand.Rand, sweeps int) int {
	best, dist, queue := 0, make([]int, g.N), make([]int, 0, g.N)
	for s := 0; s < sweeps; s++ {
		src := rng.Intn(g.N)
		far, ecc := farthest(g, src, dist, queue)
		if ecc < 0 {
			return g.N // disconnected: conservative bound
		}
		if ecc > best {
			best = ecc
		}
		_, ecc2 := farthest(g, far, dist, queue)
		if ecc2 > best {
			best = ecc2
		}
	}
	return best
}

// HStaticSampled estimates h_static for very large fabrics (Table 3's
// 4320-ToR rows) without materializing a full schedule: it samples slice
// graphs of d distinct circle-method matchings and takes the maximum
// double-sweep diameter estimate.
func HStaticSampled(n, d, samples int, seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	max := 0
	for s := 0; s < samples; s++ {
		g := &topo.Graph{N: n, Adj: make([][]int, n)}
		seen := make(map[int]bool, d)
		for len(seen) < d {
			r := rng.Intn(n - 1)
			if seen[r] {
				continue
			}
			seen[r] = true
			m := topo.CircleRound(n, r)
			for i := 0; i < n; i++ {
				g.Adj[i] = append(g.Adj[i], m[i])
			}
		}
		if est := estimateDiameter(g, rng, 4); est > max {
			max = est
		}
	}
	return max
}

// farthest returns a node at the largest hop distance from src and that
// distance (-1, -1 if some node is unreachable), searching on the caller's
// BFS scratch (topo.Graph.BFSInto).
func farthest(g *topo.Graph, src int, dist, queue []int) (node, ecc int) {
	node, ecc = src, 0
	for v, d := range g.BFSInto(src, dist, queue) {
		if d < 0 {
			return -1, -1
		}
		if d > ecc {
			node, ecc = v, d
		}
	}
	return node, ecc
}
