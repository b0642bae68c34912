package routing

import (
	"runtime"
	"sync"

	"ucmp/internal/netsim"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
)

// KSP is k-shortest-path routing applied to RDCNs (§2.2): per time slice it
// precomputes the top-k loopless shortest paths on that slice's topology
// instance; a packet dispatched in slice t follows the slice-t path, and if
// the network reconfigures mid-flight the netsim recirculation replans it
// from the current ToR on the new instance (Fig 1e).
type KSP struct {
	F *topo.Fabric
	K int

	// paths[slice][src*N+dst] holds up to K node sequences.
	paths [][][][]int
}

// NewKSP precomputes the per-slice path tables (parallelized across
// slices; Yen's algorithm per pair).
func NewKSP(f *topo.Fabric, k int) *KSP {
	r := &KSP{F: f, K: k}
	r.paths = buildKSPTables(f.Sched, k, func(sl int) *topo.Graph { return f.Sched.SliceGraph(sl) })
	return r
}

// buildKSPTables computes k-shortest-path tables for every slice of the
// schedule over graphs produced by mk (full or Opera-stable instances).
func buildKSPTables(s *topo.Schedule, k int, mk func(slice int) *topo.Graph) [][][][]int {
	tables := make([][][][]int, s.S)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for sl := 0; sl < s.S; sl++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(sl int) {
			defer wg.Done()
			defer func() { <-sem }()
			g := mk(sl)
			var sc topo.YenScratch // one per worker: reused across the slice's pairs
			row := make([][][]int, s.N*s.N)
			for src := 0; src < s.N; src++ {
				for dst := 0; dst < s.N; dst++ {
					if src == dst {
						continue
					}
					row[src*s.N+dst] = g.KShortestPathsWith(&sc, src, dst, k)
				}
			}
			tables[sl] = row
		}(sl)
	}
	wg.Wait()
	return tables
}

// Name implements netsim.Router.
func (r *KSP) Name() string {
	if r.K == 1 {
		return "ksp-1"
	}
	return "ksp-k"
}

// RotorFlow implements netsim.Router: KSP never uses the rotor machinery.
func (r *KSP) RotorFlow(f *netsim.Flow) bool { return false }

// PlanRoute implements netsim.Router: the flow hash picks one of the k
// paths of the current slice instance; all hops are planned within that
// slice (continuous-path assumption).
func (r *KSP) PlanRoute(p *netsim.Packet, tor int, now sim.Time, fromAbs int64, buf []netsim.PlannedHop) ([]netsim.PlannedHop, bool) {
	dst := p.DstToR
	if dst == tor {
		return nil, false
	}
	c := r.F.CyclicSlice(fromAbs)
	cands := r.paths[c][tor*r.F.Sched.N+dst]
	if len(cands) == 0 {
		return nil, false
	}
	var hash uint64
	if p.Flow != nil {
		hash = p.Flow.Hash
	}
	nodes := cands[hash%uint64(len(cands))]
	return sameSliceHops(nodes, fromAbs, buf), true
}

// Paths exposes the precomputed path table for analytics (Fig 5b).
func (r *KSP) Paths(slice, src, dst int) [][]int {
	return r.paths[slice][src*r.F.Sched.N+dst]
}
