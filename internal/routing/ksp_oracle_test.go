package routing

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"ucmp/internal/netsim"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
)

// The KSP and Opera routers as they were before their paths moved into the
// packed store: per-run [slice][src*N+dst] tables of Yen node sequences and
// their own planners. They are the oracle the store-backed KSP router is held
// to, path for path and plan for plan.

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

// sameSliceHops plans a node path (KSP/Opera style continuous path) with
// every hop in the given absolute slice, appending into buf.
func sameSliceHops(nodes []int, abs int64, buf []netsim.PlannedHop) []netsim.PlannedHop {
	for _, v := range nodes[1:] {
		buf = append(buf, netsim.PlannedHop{To: v, AbsSlice: abs})
	}
	return buf
}

type oracleKSP struct {
	F     *topo.Fabric
	paths [][][][]int
}

func (r *oracleKSP) PlanRoute(p *netsim.Packet, tor int, now sim.Time, fromAbs int64, buf []netsim.PlannedHop) ([]netsim.PlannedHop, bool) {
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

type oracleOpera struct {
	F      *topo.Fabric
	stable [][][][]int
}

func (o *oracleOpera) PlanRoute(p *netsim.Packet, tor int, now sim.Time, fromAbs int64, buf []netsim.PlannedHop) ([]netsim.PlannedHop, bool) {
	dst := p.DstToR
	if dst == tor {
		return nil, false
	}
	var hash uint64
	if p.Flow != nil {
		hash = p.Flow.Hash
	}
	for wait := 0; wait < o.F.Sched.S; wait++ {
		abs := fromAbs + int64(wait)
		c := o.F.CyclicSlice(abs)
		cands := o.stable[c][tor*o.F.Sched.N+dst]
		if len(cands) == 0 {
			continue
		}
		return sameSliceHops(cands[hash%uint64(len(cands))], abs, buf), true
	}
	return nil, false
}

type planner interface {
	PlanRoute(p *netsim.Packet, tor int, now sim.Time, fromAbs int64, buf []netsim.PlannedHop) ([]netsim.PlannedHop, bool)
}

type kspFabric struct {
	name string
	f    *topo.Fabric
}

// kspOracleFabrics is the fabric set of the oracle tests: round-robin and
// Opera schedules at two sizes (Opera's stable subgraphs disconnect pairs on
// both, which makes its planner wait) and a random schedule.
func kspOracleFabrics() []kspFabric {
	var out []kspFabric
	add := func(kind string, n, d int) {
		cfg := topo.Scaled()
		cfg.NumToRs, cfg.Uplinks = n, d
		out = append(out, kspFabric{fmt.Sprintf("%s-%dx%d", kind, n, d), topo.MustFabric(cfg, kind, 1)})
	}
	add("round-robin", 16, 3)
	add("round-robin", 32, 4)
	add("opera", 16, 3)
	add("opera", 32, 4)
	add("random", 16, 3)
	return out
}

// TestKSPStoreMatchesOracle: for every fabric of the set, k ∈ {1, 2, 5} and
// both graphs (full for KSP, stable for Opera), the store holds exactly the
// oracle's node sequences for every (slice, src, dst), in Yen's order — read
// flat through GroupView.Path and entry by entry — every hop in the starting
// slice. PlanRoute then matches the oracle's plan for a grid of flow hashes
// and starting slices, unplannable pairs included.
func TestKSPStoreMatchesOracle(t *testing.T) {
	hashes := []uint64{0, 1, 2, 3, 4, 7, 1<<32 + 5, ^uint64(0)}
	waited := false
	for _, fx := range kspOracleFabrics() {
		f := fx.f
		n, s := f.Sched.N, f.Sched.S
		froms := []int64{0, 1, int64(s) - 1, int64(s), int64(3*s + 2)}
		for _, k := range []int{1, 2, 5} {
			for _, stable := range []bool{false, true} {
				var r *KSP
				var oracle planner
				var want [][][][]int
				if stable {
					r = NewOpera(f, k)
					want = buildKSPTables(f.Sched, k, func(sl int) *topo.Graph { return f.Sched.StableSliceGraph(sl) })
					oracle = &oracleOpera{F: f, stable: want}
				} else {
					r = NewKSP(f, k)
					want = buildKSPTables(f.Sched, k, func(sl int) *topo.Graph { return f.Sched.SliceGraph(sl) })
					oracle = &oracleKSP{F: f, paths: want}
				}
				where := fmt.Sprintf("%s %s k=%d", fx.name, r.Name(), k)
				for sl := 0; sl < s; sl++ {
					for src := 0; src < n; src++ {
						for dst := 0; dst < n; dst++ {
							got := storePaths(t, where, r, sl, src, dst)
							if w := want[sl][src*n+dst]; !slices.EqualFunc(got, w, slices.Equal[[]int]) {
								t.Fatalf("%s (%d,%d,%d): store %v, oracle %v", where, sl, src, dst, got, w)
							}
						}
					}
				}
				for src := 0; src < n; src++ {
					for dst := 0; dst < n; dst++ {
						for _, from := range froms {
							if stable && src != dst && len(want[f.CyclicSlice(from)][src*n+dst]) == 0 {
								waited = true
							}
							for _, h := range hashes {
								p := dataPacket(f, src, dst, 1000)
								p.Flow.Hash = h
								gotHops, gotOK := r.PlanRoute(p, src, 0, from, nil)
								wantHops, wantOK := oracle.PlanRoute(p, src, 0, from, nil)
								if gotOK != wantOK || !slices.Equal(gotHops, wantHops) {
									t.Fatalf("%s %d->%d from %d hash %d: plan %v %v, oracle %v %v",
										where, src, dst, from, h, gotHops, gotOK, wantHops, wantOK)
								}
							}
						}
					}
				}
			}
		}
	}
	if !waited {
		t.Fatal("no Opera stable graph disconnected a pair: the planner's wait went unexercised")
	}
}

// storePaths returns the node sequences (src first) the store holds for one
// (slice, src, dst), flattened through GroupView.Path, after checking that
// the entry-by-entry walk gives the same paths, that entries ascend in hop
// count with latency 1, and that every hop lands in the starting slice.
func storePaths(t *testing.T, where string, r *KSP, sl, src, dst int) [][]int {
	t.Helper()
	g := r.PS.View(sl, src, dst)
	var out [][]int
	i := 0
	for e := 0; e < g.NumEntries(); e++ {
		ev := g.Entry(e)
		if ev.LatencySlices != 1 || e > 0 && ev.HopCount <= g.Entry(e-1).HopCount {
			t.Fatalf("%s (%d,%d,%d) entry %d: %d hops latency %d", where, sl, src, dst, e, ev.HopCount, ev.LatencySlices)
		}
		for j := 0; j < ev.NumPaths; j++ {
			flat, walked := g.Path(i), ev.Path(j)
			i++
			nodes := []int{src}
			for h := 0; h < flat.HopCount(); h++ {
				hop := flat.Hop(h)
				if hop != walked.Hop(h) || hop.Slice != int64(sl) {
					t.Fatalf("%s (%d,%d,%d) path %d hop %d: %v (entry walk %v)", where, sl, src, dst, i-1, h, hop, walked.Hop(h))
				}
				nodes = append(nodes, hop.To)
			}
			out = append(out, nodes)
		}
	}
	if i != g.NumPaths() {
		t.Fatalf("%s (%d,%d,%d): entries hold %d paths, NumPaths %d", where, sl, src, dst, i, g.NumPaths())
	}
	return out
}

// TestKSPPlanZeroAlloc: a KSP or Opera plan off the packed store allocates
// nothing once the route buffer is sized, like UCMP's steady state.
func TestKSPPlanZeroAlloc(t *testing.T) {
	f := topo.MustFabric(topo.Scaled(), "opera", 1)
	for _, r := range []*KSP{NewKSP(f, 5), NewOpera(f, 5)} {
		pkts := planBenchPackets(f, 1)
		for _, p := range pkts {
			p.Route = make([]netsim.PlannedHop, 0, 16)
		}
		i := 0
		allocs := testing.AllocsPerRun(4096, func() {
			p := pkts[i%len(pkts)]
			abs := int64(i % (4 * f.Sched.S))
			p.Route, _ = r.PlanRoute(p, p.SrcToR, f.SliceStart(abs), abs, p.Route[:0])
			i++
		})
		if allocs != 0 {
			t.Fatalf("%s: plan allocates %.2f allocs/op, want 0", r.Name(), allocs)
		}
	}
}
