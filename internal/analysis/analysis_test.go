package analysis

import (
	"testing"

	"ucmp/internal/core"
	"ucmp/internal/topo"
)

func pathSet(t testing.TB) *core.PathSet {
	t.Helper()
	f := topo.MustFabric(topo.Scaled(), "round-robin", 1)
	return core.BuildPathSet(f, 0.5)
}

func TestAnalyzeInvariants(t *testing.T) {
	ps := pathSet(t)
	st := Analyze(ps)
	sched := ps.F.Sched

	groups := 0
	for _, c := range st.GroupSizes {
		groups += c
	}
	wantGroups := sched.S * sched.N * (sched.N - 1)
	if groups != wantGroups {
		t.Fatalf("histogram covers %d groups, want %d", groups, wantGroups)
	}
	if st.MeanGroupSize < 1 {
		t.Fatalf("mean group size %v < 1", st.MeanGroupSize)
	}
	if st.MultiPathShare < 0 || st.MultiPathShare > 1 {
		t.Fatalf("multipath share %v", st.MultiPathShare)
	}
	if st.EdgeDisjointShare <= 0 || st.EdgeDisjointShare > 1 {
		t.Fatalf("edge-disjoint share %v", st.EdgeDisjointShare)
	}
	// The cyclewise unique-path count is at least the mean group size: new
	// slices contribute new paths.
	if st.MeanPathsPerCycle < st.MeanGroupSize {
		t.Fatalf("paths/cycle %v below paths/group %v", st.MeanPathsPerCycle, st.MeanGroupSize)
	}
	// UCMP's headline: low mean hop count (2.32 at paper scale; scaled
	// fabrics sit in the same band).
	if st.MeanHops < 1 || st.MeanHops > 3.5 {
		t.Fatalf("mean hops %v outside plausible band", st.MeanHops)
	}
	// Hop histogram has no zero-hop paths and covers everything.
	if st.HopHist[0] != 0 {
		t.Fatal("zero-hop paths recorded")
	}
}

// Single-path groups (direct-circuit slices) must exist and be counted.
func TestAnalyzeSingletons(t *testing.T) {
	ps := pathSet(t)
	st := Analyze(ps)
	if st.GroupSizes[1] == 0 {
		t.Fatal("no singleton groups; direct-circuit slices missing")
	}
	share := float64(st.GroupSizes[1]) / float64(ps.F.Sched.S*ps.F.Sched.N*(ps.F.Sched.N-1))
	gs, _ := ps.SingleSliceShare()
	if diff := share - gs; diff > 0.001 || diff < -0.001 {
		t.Fatalf("singleton share mismatch: analysis %v vs pathset %v", share, gs)
	}
}

func TestNewHopDist(t *testing.T) {
	d := NewHopDist("x", map[int]int{1: 2, 2: 2})
	if d.Mean != 1.5 {
		t.Fatalf("mean %v", d.Mean)
	}
	if d.Share[1] != 0.5 || d.Share[2] != 0.5 {
		t.Fatalf("shares %v", d.Share)
	}
	empty := NewHopDist("e", nil)
	if empty.Mean != 0 || len(empty.Share) != 0 {
		t.Fatal("empty histogram mishandled")
	}
}

func TestSortedKeys(t *testing.T) {
	keys := SortedKeys(map[int]int{3: 1, 1: 1, 2: 1})
	if len(keys) != 3 || keys[0] != 1 || keys[2] != 3 {
		t.Fatalf("keys %v", keys)
	}
}

func TestLatencies(t *testing.T) {
	ps := pathSet(t)
	st := Latencies(ps)
	if st.GlobalMeanLatency < 1 {
		t.Fatalf("global mean latency %v < 1 slice", st.GlobalMeanLatency)
	}
	// Property 3 aggregate: mean latency decreases (weakly) with hop count
	// over the kept paths.
	prev := 1e18
	for h := 1; h <= 8; h++ {
		m, ok := st.MeanLatency[h]
		if !ok {
			continue
		}
		if m > prev {
			t.Fatalf("mean latency increased with hops: %d-hop %v after %v", h, m, prev)
		}
		prev = m
		if int64(m) > st.MaxLatency[h] {
			t.Fatalf("mean above max for %d hops", h)
		}
	}
}

func TestScheduleStats(t *testing.T) {
	ps := pathSet(t)
	st := Schedule(ps.F.Sched)
	if st.CoveragePairs != st.TotalPairs {
		t.Fatalf("coverage %d/%d: schedule misses pairs", st.CoveragePairs, st.TotalPairs)
	}
	if st.MeanWait <= 0 || st.MeanWait >= float64(st.Slices) {
		t.Fatalf("mean wait %v outside (0, S)", st.MeanWait)
	}
	if st.MinDiameter < 1 || st.MaxDiameter < st.MinDiameter {
		t.Fatalf("diameters %d..%d", st.MinDiameter, st.MaxDiameter)
	}
}
