package routing

import (
	"math/rand"
	"testing"

	"ucmp/internal/core"
	"ucmp/internal/failure"
	"ucmp/internal/netsim"
)

// TestClassifyMatchesPlanner: the offline Fig 12a–c breakdown counts what
// the router does. For every affected (slice, src, dst, entry, path) of a
// link scenario and a switch scenario, a data packet whose bucket selects
// that entry and whose flow hash selects that path is planned with
// PlanRoute under the same fault view; the per-class tally of its
// RecoveredVia must equal Classify's counts. An entry no global bucket
// selects (off the group's hull, or between two buckets' midpoints) is
// never a packet's wanted entry, so its paths are tallied from resolve —
// the call PlanRoute makes — and the test requires the planned paths to
// be the large majority.
func TestClassifyMatchesPlanner(t *testing.T) {
	f := fabric(t)
	ps := core.BuildPathSet(f, 0.5)
	seen := map[netsim.RecoveryClass]int{}
	for _, tc := range []struct {
		name string
		sc   *failure.Scenario
	}{
		{"10% links", failure.NewScenario(f).FailLinks(0.1, rand.New(rand.NewSource(1)))},
		{"1 of 3 switches", failure.NewScenario(f).FailSwitches(0.3, rand.New(rand.NewSource(1)))},
	} {
		health := StaticHealth{Path: tc.sc.PathOK, Tor: tc.sc.TorOK}
		u := NewUCMP(ps)
		u.Health = health
		chk := healthCheck{h: health, path: new(core.Path)}
		var tally Breakdown
		planned := 0
		for ts := 0; ts < f.Sched.S; ts++ {
			for src := 0; src < f.NumToRs; src++ {
				for dst := 0; dst < f.NumToRs; dst++ {
					if src == dst || !tc.sc.TorOK(src) || !tc.sc.TorOK(dst) {
						continue
					}
					g := ps.View(ts, src, dst)
					bucketFor := map[int]int{}
					for b := u.Ager.NumBuckets() - 1; b >= 0; b-- {
						bucketFor[u.Ager.EntryIndex(g, b)] = b
					}
					for i := 0; i < g.NumEntries(); i++ {
						e := g.Entry(i)
						for j := 0; j < e.NumPaths; j++ {
							tally.Total++
							if chk.ok(e.Path(j)) {
								continue
							}
							tally.Affected++
							b, ok := bucketFor[i]
							if !ok {
								tally.Count[resolve(ps, g, ts, src, dst, i, uint64(j), chk).class]++
								continue
							}
							p := dataPacket(f, src, dst, 1<<20)
							p.Bucket, p.Flow.Hash = b, uint64(j)
							hops, routed := u.PlanRoute(p, src, 0, int64(ts), nil)
							if c := p.RecoveredVia; c == netsim.RecoveryPrimary || c == netsim.RecoverySteered {
								t.Fatalf("%s: broken path (%d,%d->%d) entry %d path %d planned as %v", tc.name, ts, src, dst, i, j, c)
							}
							if routed != (p.RecoveredVia != netsim.RecoveryNone) {
								t.Fatalf("%s: plan ok=%v with class %v", tc.name, routed, p.RecoveredVia)
							}
							if routed {
								validRoute(t, f, src, dst, int64(ts), hops)
							}
							tally.Count[p.RecoveredVia]++
							planned++
						}
					}
				}
			}
		}
		got := Classify(ps, health)
		if got != tally {
			t.Fatalf("%s: Classify %+v, planner tally %+v", tc.name, got, tally)
		}
		if got.Affected == 0 || planned*10 < got.Affected*9 {
			t.Fatalf("%s: planned %d of %d affected paths", tc.name, planned, got.Affected)
		}
		for c, n := range got.Count {
			seen[netsim.RecoveryClass(c)] += n
		}
		t.Logf("%s: %d affected, %d planned, counts %v", tc.name, got.Affected, planned, got.Count)
	}
	for _, c := range []netsim.RecoveryClass{netsim.RecoverySameLength, netsim.RecoveryShorter, netsim.RecoveryLonger, netsim.RecoveryBackup} {
		if seen[c] == 0 {
			t.Errorf("no affected path recovered as %v: the equivalence is vacuous for that class", c)
		}
	}
}
