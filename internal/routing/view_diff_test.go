package routing

import (
	"math/rand"
	"testing"

	"ucmp/internal/core"
	"ucmp/internal/failure"
	"ucmp/internal/netsim"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
)

// refWanted is the entry a bucket tag asks for, found from the definition
// rather than from the group's hull and thresholds (EntryIndex): the entry
// of least uniform cost at the bucket's representative α-scaled bytes sent,
// ties to fewer hops.
func refWanted(u *UCMP, g core.GroupView, bucket int) int {
	aged, m := u.Ager.AgedMidpoint(bucket), u.PS.Model
	cost := func(i int) float64 {
		e := g.Entry(i)
		return m.LatencyMicros(e.LatencySlices) + float64(e.HopCount)*aged*8/m.LinkBps*1e6
	}
	best := 0
	for i := 1; i < g.NumEntries(); i++ {
		if cost(i) < cost(best) {
			best = i
		}
	}
	return best
}

// refPaths copies an entry's paths out as *core.Path, one allocation each:
// the form the pre-store planner held them in.
func refPaths(e core.EntryView) []*core.Path {
	paths := make([]*core.Path, e.NumPaths)
	for j := range paths {
		paths[j] = new(core.Path)
		e.Path(j).Fill(paths[j])
	}
	return paths
}

// refPlan is route planning on groups copied out of the store — the
// decision procedure PlanRoute ran before groups moved into the packed
// store, kept as the reference the view-based plan must reproduce:
// congestion pick (one-bucket slack, first-hop backlog, primary on ties),
// then the wanted path or its §5.3 alternative, then a 2-hop backup.
func refPlan(u *UCMP, p *netsim.Packet, tor int, now sim.Time, fromAbs int64) ([]netsim.PlannedHop, netsim.RecoveryClass, bool) {
	ts := u.PS.F.CyclicSlice(fromAbs)
	g := u.PS.View(ts, tor, p.DstToR)
	hash := p.Flow.Hash
	var ok func(*core.Path) bool
	if h := u.Health; h != nil {
		ok = func(p *core.Path) bool { return h.PathOK(now, p) }
	}
	path, class := refPickUncongested(u, g, p.Bucket, tor, now, fromAbs, hash, ok)
	if path == nil {
		path, class = refPickHealthy(u, g, p.Bucket, hash, ok)
	}
	if path == nil {
		var exclude func(int) bool
		if h := u.Health; h != nil {
			exclude = func(t int) bool { return !h.TorOK(now, t) }
		}
		path, class = refHealthyOf(u.PS.BackupPaths(ts, tor, p.DstToR, exclude), hash, ok), netsim.RecoveryBackup
		if path == nil {
			return nil, netsim.RecoveryNone, false
		}
	}
	return hopsFromPath(path, fromAbs, nil), class, true
}

func refPickUncongested(u *UCMP, g core.GroupView, bucket, tor int, now sim.Time, fromAbs int64, hash uint64, ok func(*core.Path) bool) (*core.Path, netsim.RecoveryClass) {
	if u.Backlog == nil || u.CongestionThreshold <= 0 {
		return nil, 0
	}
	backlog := func(p *core.Path) int {
		h := p.Hops[0]
		return u.Backlog(tor, now, netsim.PlannedHop{To: h.To, AbsSlice: h.Slice + fromAbs - p.StartSlice})
	}
	want := refWanted(u, g, bucket)
	cands := refPaths(g.Entry(want))
	primary := cands[hash%uint64(len(cands))]
	best, bestBacklog := primary, backlog(primary)
	if bestBacklog < u.CongestionThreshold {
		return nil, 0
	}
	for _, delta := range [2]int{-1, 1} {
		if b := bucket + delta; b >= 0 {
			if e := refWanted(u, g, b); e != want {
				cands = append(cands, refPaths(g.Entry(e))...)
			}
		}
	}
	for _, p := range cands {
		if ok != nil && !ok(p) {
			continue
		}
		if b := backlog(p); b < bestBacklog {
			best, bestBacklog = p, b
		}
	}
	if best != primary {
		return best, netsim.RecoverySteered
	}
	return best, netsim.RecoveryPrimary
}

func refPickHealthy(u *UCMP, g core.GroupView, bucket int, hash uint64, ok func(*core.Path) bool) (*core.Path, netsim.RecoveryClass) {
	wi := refWanted(u, g, bucket)
	want, paths := g.Entry(wi), refPaths(g.Entry(wi))
	p := refHealthyOf(paths, hash, ok)
	if ok == nil {
		return p, netsim.RecoveryPrimary
	}
	if p != nil {
		if p == refHealthyOf(paths, hash, nil) {
			return p, netsim.RecoveryPrimary
		}
		return p, netsim.RecoverySameLength
	}
	var shorter, longer *core.Path
	for i := 0; i < g.NumEntries(); i++ {
		e := g.Entry(i)
		switch {
		case i == wi:
		case e.HopCount == want.HopCount:
			if p := refHealthyOf(refPaths(e), hash, ok); p != nil {
				return p, netsim.RecoverySameLength
			}
		case e.HopCount < want.HopCount:
			if shorter == nil {
				shorter = refHealthyOf(refPaths(e), hash, ok)
			}
		default:
			if longer == nil {
				longer = refHealthyOf(refPaths(e), hash, ok)
			}
		}
	}
	if shorter != nil {
		return shorter, netsim.RecoveryShorter
	}
	if longer != nil {
		return longer, netsim.RecoveryLonger
	}
	return nil, netsim.RecoveryNone
}

func refHealthyOf(paths []*core.Path, hash uint64, ok func(*core.Path) bool) *core.Path {
	n := len(paths)
	for i := 0; i < n; i++ {
		if p := paths[(int(hash%uint64(n))+i)%n]; ok == nil || ok(p) {
			return p
		}
	}
	return nil
}

// scriptedBoard is a deterministic congestion board: a hash of (tor, peer,
// slice) picks a backlog in [0, 8), so with threshold 4 about half the
// picks engage and neighbours differ often enough to steer.
func scriptedBoard(tor int, _ sim.Time, hop netsim.PlannedHop) int {
	x := uint64(tor)*0x9e3779b97f4a7c15 ^ uint64(hop.To)*0xbf58476d1ce4e5b9 ^ uint64(hop.AbsSlice)*0x94d049bb133111eb
	x ^= x >> 29
	return int(x % 8)
}

// TestPlanOnViewsMatchesPlanOnGroups: on a brute-force and a symmetric path
// set, PlanRoute (views) and refPlan (groups copied out) make the same
// decision — hops and recovery class — for every (tor, dst, slice, bucket)
// and several flow hashes, in steady state, under a fault view, with
// congestion steering engaged, and with both.
func TestPlanOnViewsMatchesPlanOnGroups(t *testing.T) {
	symCfg := topo.Scaled()
	symCfg.Uplinks = 4
	for _, f := range []*topo.Fabric{fabric(t), topo.MustFabric(symCfg, "round-robin", 1)} {
		ps := core.BuildPathSet(f, 0.5)
		sc := failure.NewScenario(f)
		rng := rand.New(rand.NewSource(7))
		sc.FailToRs(0.1, rng)
		sc.FailLinks(0.15, rng)
		health := StaticHealth{Path: sc.PathOK, Tor: sc.TorOK}
		for _, mode := range []struct {
			name          string
			health, steer bool
		}{{"steady", false, false}, {"faults", true, false}, {"steering", false, true}, {"faults+steering", true, true}} {
			u := NewUCMP(ps)
			if mode.health {
				u.Health = health
			}
			if mode.steer {
				u.Backlog, u.CongestionThreshold = scriptedBoard, 4
			}
			classes := map[netsim.RecoveryClass]int{}
			for tor := 0; tor < f.NumToRs; tor++ {
				for dst := 0; dst < f.NumToRs; dst++ {
					if dst == tor {
						continue
					}
					for abs := int64(0); abs < int64(f.Sched.S)+2; abs++ {
						for b := -1; b <= u.Ager.NumBuckets(); b++ {
							for hash := uint64(0); hash < 5; hash++ {
								p := dataPacket(f, tor, dst, 1<<20)
								p.Bucket, p.Flow.Hash = b, hash*2654435761
								want, wantClass, wantOK := refPlan(u, p, tor, 0, abs)
								got, ok := u.PlanRoute(p, tor, 0, abs, nil)
								if ok != wantOK || p.RecoveredVia != wantClass || len(got) != len(want) {
									t.Fatalf("%s sym=%v %d->%d abs=%d b=%d hash=%d: (%v, %v, %v), want (%v, %v, %v)",
										mode.name, ps.Symmetric(), tor, dst, abs, b, hash, got, p.RecoveredVia, ok, want, wantClass, wantOK)
								}
								for i := range got {
									if got[i] != want[i] {
										t.Fatalf("%s sym=%v %d->%d abs=%d b=%d hash=%d: %v, want %v",
											mode.name, ps.Symmetric(), tor, dst, abs, b, hash, got, want)
									}
								}
								classes[p.RecoveredVia]++
							}
						}
					}
				}
			}
			// The differential must not be vacuous in any mode.
			if mode.steer && classes[netsim.RecoverySteered] == 0 {
				t.Fatalf("%s sym=%v: the scripted board never steered", mode.name, ps.Symmetric())
			}
			if mode.health && classes[netsim.RecoverySameLength]+classes[netsim.RecoveryShorter]+
				classes[netsim.RecoveryLonger]+classes[netsim.RecoveryBackup] == 0 {
				t.Fatalf("%s sym=%v: the fault view never forced a recovery", mode.name, ps.Symmetric())
			}
		}
	}
}

// TestSteadyStatePlanZeroAlloc: the steady-state plan off the packed store
// allocates nothing once the route buffer is warm — on the paper's
// brute-force (108,6) path set and on a rotation-symmetric one.
func TestSteadyStatePlanZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the (108,6) path set")
	}
	for _, nd := range [][2]int{{108, 6}, {64, 4}} {
		f, u := planBenchFabric(t, nd[0], nd[1])
		if u.PS.Symmetric() != (nd[0] == 64) {
			t.Fatalf("(%d,%d): Symmetric() = %v", nd[0], nd[1], u.PS.Symmetric())
		}
		pkts := planBenchPackets(f, u.Ager.NumBuckets())
		for _, p := range pkts {
			p.Route = make([]netsim.PlannedHop, 0, 16)
		}
		i := 0
		allocs := testing.AllocsPerRun(4096, func() {
			p := pkts[i%len(pkts)]
			abs := int64(i % (4 * f.Sched.S))
			p.Route, _ = u.PlanRoute(p, p.SrcToR, f.SliceStart(abs), abs, p.Route[:0])
			i++
		})
		if allocs != 0 {
			t.Fatalf("(%d,%d): steady-state plan allocates %.2f allocs/op, want 0", nd[0], nd[1], allocs)
		}
	}
}

// TestFaultViewPlanZeroAlloc: consulting the fault view costs no allocation
// per plan on either kind of path set — the predicate is shown the pooled
// scratch Path, not a materialized group.
func TestFaultViewPlanZeroAlloc(t *testing.T) {
	symCfg := topo.Scaled()
	symCfg.Uplinks = 4
	for _, f := range []*topo.Fabric{fabric(t), topo.MustFabric(symCfg, "round-robin", 1)} {
		u := NewUCMP(core.BuildPathSet(f, 0.5))
		// Multi-hop paths through an odd first peer are down, so plans walk
		// parallels and entries; the direct path every group ends with keeps
		// them off the (allocating, as ever) backup fallback.
		u.Health = StaticHealth{Path: func(p *core.Path) bool { return len(p.Hops) == 1 || p.Hops[0].To%2 == 0 }}
		p := dataPacket(f, 0, 5, 1<<20)
		p.Route = make([]netsim.PlannedHop, 0, 16)
		abs, recovered := int64(0), 0
		allocs := testing.AllocsPerRun(500, func() {
			abs++
			hops, ok := u.PlanRoute(p, 0, 0, abs, p.Route[:0])
			if !ok || p.RecoveredVia == netsim.RecoveryBackup {
				t.Fatalf("abs=%d: plan fell through to backups", abs)
			}
			if p.RecoveredVia != netsim.RecoveryPrimary {
				recovered++
			}
			p.Route = hops
		})
		if recovered == 0 {
			t.Fatalf("sym=%v: the fault view never forced a recovery", u.PS.Symmetric())
		}
		if raceEnabled {
			t.Logf("race detector on: skipping zero-alloc assertion (measured %.2f allocs/op)", allocs)
		} else if allocs != 0 {
			t.Fatalf("sym=%v: fault-view plan allocates %.2f allocs/op, want 0", u.PS.Symmetric(), allocs)
		}
	}
}
