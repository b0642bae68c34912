package analysis

import (
	"reflect"
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

// TestAnalyzePinned pins every field of Analyze and Latencies, maps
// included, on the scaled round-robin fabric, the symmetric (16,4) build and
// a random schedule: the exact guard for any change to how the statistics
// read the path set.
func TestAnalyzePinned(t *testing.T) {
	sym := topo.Scaled()
	sym.Uplinks = 4
	cases := []struct {
		name string
		f    *topo.Fabric
		sym  bool
		st   PathStats
		lat  LatencyStats
	}{
		{
			name: "round-robin(16,3)",
			f:    topo.MustFabric(topo.Scaled(), "round-robin", 1),
			st: PathStats{
				GroupSizes:        map[int]int{1: 240, 2: 483, 3: 141, 4: 198, 5: 107, 6: 25, 8: 5, 9: 1},
				MeanGroupSize:     2.629166666666667,
				MultiPathShare:    0.8,
				EdgeDisjointShare: 0.8291600633914421,
				PathsPerCycle:     map[int]int{5: 28, 6: 29, 7: 32, 8: 38, 9: 45, 10: 27, 11: 19, 12: 17, 13: 4, 14: 1},
				MeanPathsPerCycle: 8.316666666666666,
				HopHist:           map[int]int{1: 1200, 2: 1033, 3: 668, 4: 254},
				MeanHops:          1.992393026941363,
			},
			lat: LatencyStats{
				MeanLatency:       map[int]float64{1: 3, 2: 1.637947725072604, 3: 1.032934131736527, 4: 1},
				MaxLatency:        map[int]int64{1: 5, 2: 3, 3: 2, 4: 1},
				GlobalMeanLatency: 1.9765451664025357,
			},
		},
		{
			name: "round-robin(16,4) symmetric",
			f:    topo.MustFabric(sym, "round-robin", 1),
			sym:  true,
			st: PathStats{
				GroupSizes:        map[int]int{1: 240, 2: 224, 3: 272, 4: 96, 5: 96, 7: 32},
				MeanGroupSize:     2.7,
				MultiPathShare:    0.75,
				EdgeDisjointShare: 0.7962962962962963,
				PathsPerCycle:     map[int]int{4: 32, 5: 32, 6: 32, 7: 64, 9: 32, 12: 32, 13: 16},
				MeanPathsPerCycle: 7.533333333333333,
				HopHist:           map[int]int{1: 960, 2: 928, 3: 512, 4: 192},
				MeanHops:          1.9753086419753085,
			},
			lat: LatencyStats{
				MeanLatency:       map[int]float64{1: 2.5, 2: 1.3793103448275863, 3: 1, 4: 1},
				MaxLatency:        map[int]int64{1: 4, 2: 2, 3: 1, 4: 1},
				GlobalMeanLatency: 1.691358024691358,
			},
		},
		{
			name: "random(16,3)",
			f:    topo.MustFabric(topo.Scaled(), "random", 1),
			st: PathStats{
				GroupSizes:        map[int]int{1: 240, 2: 394, 3: 218, 4: 196, 5: 109, 6: 31, 7: 4, 8: 6, 9: 2},
				MeanGroupSize:     2.7425,
				MultiPathShare:    0.8,
				EdgeDisjointShare: 0.8182923123670617,
				PathsPerCycle:     map[int]int{5: 3, 6: 36, 7: 37, 8: 50, 9: 36, 10: 31, 11: 25, 12: 12, 13: 7, 14: 3},
				MeanPathsPerCycle: 8.65,
				HopHist:           map[int]int{1: 1200, 2: 1111, 3: 590, 4: 318, 5: 72},
				MeanHops:          2.0735338802795504,
			},
			lat: LatencyStats{
				MeanLatency:       map[int]float64{1: 3, 2: 1.6993699369936994, 3: 1.0677966101694916, 4: 1, 5: 1},
				MaxLatency:        map[int]int64{1: 5, 2: 3, 3: 2, 4: 1, 5: 1},
				GlobalMeanLatency: 1.9775144333029475,
			},
		},
	}
	for _, c := range cases {
		ps := core.BuildPathSet(c.f, 0.5)
		if ps.Symmetric() != c.sym {
			t.Fatalf("%s: Symmetric() = %v", c.name, ps.Symmetric())
		}
		if got := Analyze(ps); !reflect.DeepEqual(got, c.st) {
			t.Errorf("%s: Analyze =\n%+v\nwant\n%+v", c.name, got, c.st)
		}
		if got := Latencies(ps); !reflect.DeepEqual(got, c.lat) {
			t.Errorf("%s: Latencies =\n%+v\nwant\n%+v", c.name, got, c.lat)
		}
	}
}
