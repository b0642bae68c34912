package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ucmp/internal/sim"
	"ucmp/internal/topo"
)

func scaledFabric(t testing.TB) *topo.Fabric {
	t.Helper()
	return topo.MustFabric(topo.Scaled(), "round-robin", 1)
}

func model(f *topo.Fabric, alpha float64) CostModel {
	return CostModel{Alpha: alpha, LinkBps: float64(f.LinkBps), SliceMicros: f.SliceDuration.Micros()}
}

// ---- Table 1 (§5.1): the worked uniform-cost example. ----

func TestTable1UniformCost(t *testing.T) {
	m := CostModel{Alpha: 1, LinkBps: 100e9, SliceMicros: 5}
	// Paths from Table 1: (hop, latency in us) with u=5us slices.
	rows := []struct {
		hops int
		lat  int64 // slices: 60us=12, 15us=3, 10us=2, 5us=1
	}{{1, 12}, {2, 3}, {3, 2}, {4, 1}}
	sizes := []int64{1e6, 1e5, 1e4}
	want := [][]float64{ // C(p,f) per Table 1
		{140, 68, 60.8},
		{175, 31, 16.6},
		{250, 34, 12.4},
		{325, 37, 8.2},
	}
	for i, r := range rows {
		for j, s := range sizes {
			got := m.Cost(r.lat, r.hops, s)
			if diff := got - want[i][j]; diff > 0.01 || diff < -0.01 {
				t.Errorf("C(%d-hop, %dB) = %v, want %v", r.hops, s, got, want[i][j])
			}
		}
	}
	// Winners per column (underlined in Table 1): 1MB->1hop, 100KB->2hop, 10KB->4hop.
	entries := []Entry{
		{HopCount: 1, LatencySlices: 12},
		{HopCount: 2, LatencySlices: 3},
		{HopCount: 3, LatencySlices: 2},
		{HopCount: 4, LatencySlices: 1},
	}
	g := &Group{Entries: entries}
	g.BuildBuckets(m)
	for _, c := range []struct {
		size int64
		hops int
	}{{1e6, 1}, {1e5, 2}, {1e4, 4}} {
		if got := g.MinCostEntry(m, c.size); got.HopCount != c.hops {
			t.Errorf("min-cost for %dB = %d hops, want %d", c.size, got.HopCount, c.hops)
		}
		// The aged mapping must agree with exact minimization at the flow's
		// full size.
		if got := g.EntryForAged(m.AgedValue(c.size)); got.HopCount != c.hops {
			t.Errorf("aged mapping for %dB = %d hops, want %d", c.size, got.HopCount, c.hops)
		}
	}
}

func TestBoundaryBytesSolvesEqn3(t *testing.T) {
	m := CostModel{Alpha: 0.5, LinkBps: 100e9, SliceMicros: 50}
	latA, hopsA := int64(6), 1
	latB, hopsB := int64(2), 3
	s := m.BoundaryBytes(latA, hopsA, latB, hopsB)
	ca := m.Cost(latA, hopsA, int64(s))
	cb := m.Cost(latB, hopsB, int64(s))
	if diff := ca - cb; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("costs at boundary differ: %v vs %v", ca, cb)
	}
	// Below the boundary the lower-latency path wins; above, fewer hops win.
	if m.Cost(latB, hopsB, int64(s/2)) >= m.Cost(latA, hopsA, int64(s/2)) {
		t.Fatal("small flow should prefer low-latency path")
	}
	if m.Cost(latA, hopsA, int64(s*2)) >= m.Cost(latB, hopsB, int64(s*2)) {
		t.Fatal("large flow should prefer few-hop path")
	}
}

// ---- §4.1/Alg. 1: n-hop minimum-latency paths. ----

func TestTablesValid(t *testing.T) {
	f := scaledFabric(t)
	calc := NewCalculator(f)
	calc.HMax++ // every level of the fabric's own bound lies below the pruned last one
	for ts := 0; ts < f.Sched.S; ts++ {
		tab := calc.Compute(ts)
		if err := tab.validate(); err != nil {
			t.Fatalf("tstart %d: %v", ts, err)
		}
	}
}

// Brute-force the true n-hop minimum latency on a tiny fabric and compare.
func TestDPMatchesBruteForce(t *testing.T) {
	cfg := topo.Scaled()
	cfg.NumToRs = 8
	cfg.Uplinks = 2
	f := topo.MustFabric(cfg, "round-robin", 1)
	calc := NewCalculator(f)
	if calc.HSlice < calc.Bound.HStatic {
		t.Logf("case II fabric (hslice=%d, hstatic=%d)", calc.HSlice, calc.Bound.HStatic)
	}
	sched := f.Sched

	// bruteEnd returns the minimum end slice over ALL n-hop walks whose
	// prefix is itself latency-minimal at each step is NOT assumed; we
	// search the full walk space (with the same intra-slice hop cap).
	var bruteEnd func(cur, dst int, hopsLeft int, arrive int64, hInSlice int) int64
	bruteEnd = func(cur, dst int, hopsLeft int, arrive int64, hInSlice int) int64 {
		if hopsLeft == 0 {
			if cur == dst {
				return arrive
			}
			return -1
		}
		best := int64(-1)
		for next := 0; next < sched.N; next++ {
			if next == cur {
				continue
			}
			if hopsLeft > 1 && next == dst {
				continue // match DP: intermediates differ from dst
			}
			e := sched.NextDirect(cur, next, arrive)
			h := 1
			if e == arrive {
				if hInSlice >= calc.HSlice {
					e = sched.NextDirect(cur, next, arrive+1)
				} else {
					h = hInSlice + 1
				}
			}
			got := bruteEnd(next, dst, hopsLeft-1, e, h)
			if got >= 0 && (best < 0 || got < best) {
				best = got
			}
		}
		return best
	}

	tab := calc.Compute(0)
	maxN := 3
	if maxN > calc.HMax {
		maxN = calc.HMax
	}
	for src := 0; src < sched.N; src++ {
		for dst := 0; dst < sched.N; dst++ {
			if src == dst {
				continue
			}
			for n := 1; n <= maxN; n++ {
				want := bruteEnd(src, dst, n, 0, 0)
				got := tab.EndSlice(n, src, dst)
				// The DP constrains prefixes to be the (n-1)-hop minimum
				// path (the paper's recursion), so it can only be >= the
				// brute force; for n<=2 they must match exactly.
				if n <= 2 && got != want {
					t.Fatalf("%d-hop %d->%d: DP end %d, brute %d", n, src, dst, got, want)
				}
				if got < want {
					t.Fatalf("%d-hop %d->%d: DP end %d beats brute force %d", n, src, dst, got, want)
				}
			}
		}
	}
}

func TestPaperFig3Example(t *testing.T) {
	// Reconstruct the Fig 3 topology: 5 ToRs A..E = 0..4, circuits with
	// slices: A-B:5, A-C:1, A-D:4, A-E:2, C-B:4, D-B:3, E-B:1, C-E:2, C-D:2.
	// We can't express this exact asymmetric instance as a generated
	// schedule, so this test drives the group logic directly on
	// hand-constructed tables... covered instead via CostModel and the DP
	// invariants; here we verify the documented outcome on the generated
	// fabric: multi-hop minimum-latency paths never have higher latency
	// than the direct path.
	f := scaledFabric(t)
	calc := NewCalculator(f)
	tab := calc.Compute(2)
	n := f.Sched.N
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			direct := tab.LatencySlices(1, src, dst)
			for h := 2; h <= calc.HMax; h++ {
				if lat := tab.LatencySlices(h, src, dst); lat > direct+int64(f.Sched.S) {
					t.Fatalf("%d-hop %d->%d latency %d wildly above direct %d", h, src, dst, lat, direct)
				}
			}
		}
	}
}

func TestParallelPathsShareCost(t *testing.T) {
	f := scaledFabric(t)
	calc := NewCalculator(f)
	calc.HMax++ // every level of the fabric's own bound lies below the pruned last one
	tab := calc.Compute(0)
	n := f.Sched.N
	found := 0
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			for h := 2; h <= calc.HMax; h++ {
				paths := tab.ParallelPaths(h, src, dst)
				if len(paths) > 1 {
					found++
				}
				for _, p := range paths {
					if err := p.Validate(); err != nil {
						t.Fatal(err)
					}
					if p.EndSlice() != paths[0].EndSlice() {
						t.Fatalf("parallel paths with different latencies: %v vs %v", p, paths[0])
					}
					if p.HopCount() != h {
						t.Fatalf("parallel path hop count %d, want %d", p.HopCount(), h)
					}
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no parallel solutions found anywhere; property 2 untested")
	}
}

// ---- §4.3: UCMP group properties. ----

func TestGroupProperties(t *testing.T) {
	f := scaledFabric(t)
	ps := BuildPathSet(f, 0.5)
	n := f.Sched.N
	groups := 0
	for ts := 0; ts < f.Sched.S; ts++ {
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src == dst {
					continue
				}
				g := ps.Group(ts, src, dst)
				if err := g.Validate(); err != nil {
					t.Fatalf("group (%d,%d,%d): %v", src, dst, ts, err)
				}
				groups++
				// Property 3 plus the hull: thresholds count matches hull.
				if len(g.Thresholds()) != len(g.hull)-1 {
					t.Fatalf("threshold/hull mismatch")
				}
			}
		}
	}
	if groups == 0 {
		t.Fatal("no groups built")
	}
}

// Property 1 against an exhaustive check: no path of the same hop count
// (over the full walk space) beats a group's entry latency. Small fabric.
func TestGroupProperty1Exhaustive(t *testing.T) {
	cfg := topo.Scaled()
	cfg.NumToRs = 8
	cfg.Uplinks = 2
	f := topo.MustFabric(cfg, "round-robin", 1)
	ps := BuildPathSet(f, 0.5)
	sched := f.Sched
	var walkMin func(cur, dst, hopsLeft int, arrive int64, h int) int64
	walkMin = func(cur, dst, hopsLeft int, arrive int64, h int) int64 {
		if hopsLeft == 0 {
			if cur == dst {
				return arrive
			}
			return -1
		}
		best := int64(-1)
		for next := 0; next < sched.N; next++ {
			if next == cur || (hopsLeft > 1 && next == dst) {
				continue
			}
			e := sched.NextDirect(cur, next, arrive)
			hh := 1
			if e == arrive {
				if h >= ps.Calc.HSlice {
					e = sched.NextDirect(cur, next, arrive+1)
				} else {
					hh = h + 1
				}
			}
			if got := walkMin(next, dst, hopsLeft-1, e, hh); got >= 0 && (best < 0 || got < best) {
				best = got
			}
		}
		return best
	}
	for src := 0; src < 4; src++ {
		for dst := 4; dst < 8; dst++ {
			g := ps.Group(0, src, dst)
			for _, e := range g.Entries {
				if e.HopCount > 2 {
					continue // keep the exhaustive walk tractable
				}
				brute := walkMin(src, dst, e.HopCount, 0, 0)
				lat := brute + 1 // start slice 0
				if e.LatencySlices != lat {
					t.Fatalf("group entry %d-hop %d->%d latency %d, exhaustive %d",
						e.HopCount, src, dst, e.LatencySlices, lat)
				}
			}
		}
	}
}

func TestDirectSliceSingletonGroups(t *testing.T) {
	f := scaledFabric(t)
	ps := BuildPathSet(f, 0.5)
	n := f.Sched.N
	for ts := 0; ts < f.Sched.S; ts++ {
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src == dst {
					continue
				}
				g := ps.Group(ts, src, dst)
				if f.Sched.SwitchFor(ts, src, dst) >= 0 {
					// Direct circuit in the starting slice: latency 1, hop 1
					// dominates everything; the group must be the single
					// direct path (§5.3).
					if len(g.Entries) != 1 || g.Entries[0].HopCount != 1 || g.Entries[0].LatencySlices != 1 {
						t.Fatalf("direct-slice group (%d,%d,%d) = %+v", src, dst, ts, g.Entries)
					}
				}
			}
		}
	}
	gs, psn := ps.SingleSliceShare()
	if gs <= 0 || gs > 0.5 {
		t.Fatalf("single-path group share %v out of plausible range", gs)
	}
	if psn >= gs {
		t.Fatalf("backup path share %v should be below group share %v", psn, gs)
	}
}

// ---- Flow aging and buckets (§5.1, §5.2). ----

func TestAgingMonotonic(t *testing.T) {
	f := scaledFabric(t)
	ps := BuildPathSet(f, 0.5)
	ager := NewFlowAger(ps)
	if ager.NumBuckets() < 2 {
		t.Fatalf("expected multiple global buckets, got %d", ager.NumBuckets())
	}
	if ager.NumBuckets() > 64 {
		t.Fatalf("buckets %d exceed 6-bit DSCP budget (§6.1)", ager.NumBuckets())
	}
	prev := 0
	for bytes := int64(0); bytes < int64(1e9); bytes = bytes*2 + 1000 {
		b := ager.Bucket(bytes)
		if b < prev {
			t.Fatalf("bucket decreased as flow aged: %d after %d", b, prev)
		}
		prev = b
	}
}

// As a flow ages it must step to paths with fewer (or equal) hops and
// higher (or equal) latency — the §5.1 "no reordering in normal cases"
// argument relies on this monotonicity.
func TestAgedPathMonotonicity(t *testing.T) {
	f := scaledFabric(t)
	ps := BuildPathSet(f, 0.5)
	ager := NewFlowAger(ps)
	n := f.Sched.N
	for ts := 0; ts < f.Sched.S; ts++ {
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src == dst {
					continue
				}
				g := ps.Group(ts, src, dst)
				prevHops := 1 << 30
				prevLat := int64(-1)
				for b := 0; b < ager.NumBuckets(); b++ {
					e := ager.EntryForBucket(g, b)
					if e.HopCount > prevHops {
						t.Fatalf("hops increased with age: group (%d,%d,%d) bucket %d", src, dst, ts, b)
					}
					if e.HopCount < prevHops {
						if prevLat >= 0 && e.LatencySlices < prevLat {
							t.Fatalf("latency decreased with age: group (%d,%d,%d) bucket %d", src, dst, ts, b)
						}
					}
					prevHops, prevLat = e.HopCount, e.LatencySlices
				}
			}
		}
	}
}

// The aged mapping must agree with exact cost minimization over the hull.
func TestAgedMatchesExactMinimization(t *testing.T) {
	f := scaledFabric(t)
	ps := BuildPathSet(f, 0.5)
	n := f.Sched.N
	prop := func(rawSrc, rawDst, rawTs uint8, rawSize uint32) bool {
		src, dst := int(rawSrc)%n, int(rawDst)%n
		if src == dst {
			return true
		}
		ts := int(rawTs) % f.Sched.S
		size := int64(rawSize)%int64(2e8) + 1
		g := ps.Group(ts, src, dst)
		exact := g.MinCostEntry(ps.Model, size)
		aged := g.EntryForAged(ps.Model.AgedValue(size))
		// Both must achieve the same (minimal) cost; they may be distinct
		// entries only if tied.
		ce := ps.Model.Cost(exact.LatencySlices, exact.HopCount, size)
		ca := ps.Model.Cost(aged.LatencySlices, aged.HopCount, size)
		return ca <= ce+1e-9
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAlphaRetuneShiftsBuckets(t *testing.T) {
	f := scaledFabric(t)
	ps := BuildPathSet(f, 0.5)
	ager := NewFlowAger(ps)
	bytes := int64(5e6)
	low := ager.Bucket(bytes)
	ager.SetAlpha(2.0)
	high := ager.Bucket(bytes)
	if high < low {
		t.Fatalf("larger α must age flows faster: bucket %d -> %d", low, high)
	}
	if ager.Alpha() != 2.0 {
		t.Fatal("alpha not stored")
	}
}

// ---- Latency relaxation and backups (§4.3, §5.3). ----

func TestRelaxedTwoHop(t *testing.T) {
	f := scaledFabric(t)
	ps := BuildPathSet(f, 0.5)
	paths := ps.RelaxedTwoHop(0, 0, 5, 0)
	if len(paths) != f.Sched.N-2 {
		t.Fatalf("want a 2-hop path via every intermediate, got %d", len(paths))
	}
	for i, p := range paths {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		if p.HopCount() != 2 {
			t.Fatalf("relaxed path with %d hops", p.HopCount())
		}
		if i > 0 && p.EndSlice() < paths[i-1].EndSlice() {
			t.Fatal("relaxed paths not sorted by latency")
		}
	}
	// Latency cap prunes.
	capped := ps.RelaxedTwoHop(0, 0, 5, 2)
	for _, p := range capped {
		if p.LatencySlices() > 2 {
			t.Fatalf("capped path latency %d > 2", p.LatencySlices())
		}
	}
	if len(capped) >= len(paths) {
		t.Fatal("cap did not prune anything")
	}
}

func TestBackupPathsExclude(t *testing.T) {
	f := scaledFabric(t)
	ps := BuildPathSet(f, 0.5)
	bad := 3
	paths := ps.BackupPaths(0, 0, 5, func(tor int) bool { return tor == bad })
	if len(paths) == 0 {
		t.Fatal("no backup paths")
	}
	if len(paths) > BackupDepth {
		t.Fatal("BackupDepth not honored")
	}
	for _, p := range paths {
		if p.Hops[0].To == bad {
			t.Fatalf("backup path uses excluded ToR: %v", p)
		}
	}
}

// ---- Appendix B: h_max bound. ----

func TestPUnvisitedDecreasing(t *testing.T) {
	prev := 1.0
	for c := 1; c <= 6; c++ {
		p := PUnvisited(108, 6, c)
		if p < 0 || p > 1 {
			t.Fatalf("P out of [0,1]: %v", p)
		}
		if p > prev {
			t.Fatalf("P not decreasing at c=%d: %v > %v", c, p, prev)
		}
		prev = p
	}
}

// Table 3: S values for the paper's configurations.
func TestSpanSlicesTable3(t *testing.T) {
	cases := []struct {
		n, d, s int
	}{
		{108, 6, 5},
		{324, 6, 6},
		{4320, 24, 4},
		{1200, 12, 5},
	}
	for _, c := range cases {
		if got := SpanSlices(c.n, c.d, DefaultUnvisitedThreshold); got != c.s {
			t.Errorf("S(%d,%d) = %d, want %d (Table 3)", c.n, c.d, got, c.s)
		}
	}
}

func TestBoundHmaxCases(t *testing.T) {
	cfg := topo.PaperDefault()
	sched := topo.RoundRobin(cfg.NumToRs, cfg.Uplinks)

	// 50 us slices: h_slice=80 >= h_static -> case I.
	b := BoundHmax(cfg, sched)
	if !b.CaseI {
		t.Fatalf("50us slices should be case I: %+v", b)
	}
	if b.Q != b.HStatic {
		t.Fatalf("case I Q=%d, want h_static=%d", b.Q, b.HStatic)
	}

	// 1 us slices: h_slice=1 < h_static -> case II, Q = 1*S = 5.
	cfg.SliceDuration = 1 * sim.Microsecond
	b = BoundHmax(cfg, sched)
	if b.CaseI {
		t.Fatalf("1us slices should be case II: %+v", b)
	}
	if b.S != 5 || b.Q != 5 {
		t.Fatalf("case II S=%d Q=%d, want 5/5 (Table 3)", b.S, b.Q)
	}
}

func TestQHmaxWithinPaperBound(t *testing.T) {
	// "Q(h_max) is at most 15 hops under a wide range of RDCN settings up
	// to 4320 ToRs" (§4.2) — check our generated fabrics stay within it.
	for _, nd := range [][2]int{{16, 3}, {108, 6}} {
		cfg := topo.PaperDefault()
		cfg.NumToRs, cfg.Uplinks = nd[0], nd[1]
		for _, u := range []sim.Time{1 * sim.Microsecond, 10 * sim.Microsecond, 50 * sim.Microsecond} {
			cfg.SliceDuration = u
			sched := topo.RoundRobin(cfg.NumToRs, cfg.Uplinks)
			b := BoundHmax(cfg, sched)
			if b.Q < 1 || b.Q > 16 {
				t.Errorf("Q(h_max)=%d for N=%d u=%v out of expected range", b.Q, nd[0], u)
			}
		}
	}
}

// ---- Path helpers. ----

func TestPathHelpers(t *testing.T) {
	p := &Path{Src: 0, Dst: 3, StartSlice: 2, Hops: []Hop{{To: 1, Slice: 2}, {To: 3, Slice: 4}}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.HopCount() != 2 || p.EndSlice() != 4 || p.LatencySlices() != 3 {
		t.Fatal("basic accessors wrong")
	}
	nodes := p.Nodes()
	if len(nodes) != 3 || nodes[0] != 0 || nodes[2] != 3 {
		t.Fatalf("nodes %v", nodes)
	}
	edges := p.Edges()
	if len(edges) != 2 || edges[0] != [2]int{0, 1} || edges[1] != [2]int{1, 3} {
		t.Fatalf("edges %v", edges)
	}
	if p.String() == "" {
		t.Fatal("empty string rendering")
	}
	bad := &Path{Src: 0, Dst: 3, StartSlice: 2, Hops: []Hop{{To: 1, Slice: 1}}}
	if bad.Validate() == nil {
		t.Fatal("time-travel path accepted")
	}
	empty := &Path{Src: 0, Dst: 1}
	if empty.Validate() == nil {
		t.Fatal("empty path accepted")
	}
	wrongDst := &Path{Src: 0, Dst: 3, Hops: []Hop{{To: 2, Slice: 0}}}
	if wrongDst.Validate() == nil {
		t.Fatal("wrong-destination path accepted")
	}
}

func TestPathSetAlphaLive(t *testing.T) {
	f := scaledFabric(t)
	ps := BuildPathSet(f, 0.5)
	g := ps.Group(0, 0, 1)
	thr := append([]float64(nil), g.Thresholds()...)
	// Live retuning (§5.2) belongs to a run's own ager: the path set, which
	// warm fabrics share between runs, keeps the α it was built with, and
	// its thresholds are α-free.
	NewFlowAger(ps).SetAlpha(1.5)
	if ps.Model.Alpha != 0.5 {
		t.Fatalf("retuning an ager moved the path set's alpha to %v", ps.Model.Alpha)
	}
	for i, v := range g.Thresholds() {
		if v != thr[i] {
			t.Fatal("thresholds changed with alpha; Eqn 4 violated")
		}
	}
}

// Property over random fabrics: the n-hop minimum end slice never exceeds
// the (n-1)-hop end slice by a full cycle or more — one extra hop can wait
// at most one cycle for its circuit.
func TestDPEndSliceGrowthBounded(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := topo.Scaled()
		cfg.NumToRs = 10
		cfg.Uplinks = 2
		f := topo.MustFabric(cfg, "random", seed)
		calc := NewCalculator(f)
		s := int64(f.Sched.S)
		for ts := 0; ts < f.Sched.S; ts++ {
			tab := calc.Compute(ts)
			for src := 0; src < f.Sched.N; src++ {
				for dst := 0; dst < f.Sched.N; dst++ {
					if src == dst {
						continue
					}
					for n := 2; n <= calc.HMax; n++ {
						prev := tab.EndSlice(n-1, src, dst)
						cur := tab.EndSlice(n, src, dst)
						if prev < 0 || cur < 0 {
							continue
						}
						if cur > prev+s {
							t.Fatalf("seed %d ts %d %d->%d: end[%d]=%d beyond end[%d]+S=%d",
								seed, ts, src, dst, n, cur, n-1, prev+s)
						}
					}
				}
			}
		}
	}
}

// The hull thresholds must be exact uniform-cost indifference points: at
// threshold ± epsilon, the winning hull entry flips.
func TestThresholdsAreIndifferencePoints(t *testing.T) {
	f := scaledFabric(t)
	ps := BuildPathSet(f, 0.5)
	m := ps.Model
	checked := 0
	for ts := 0; ts < f.Sched.S; ts++ {
		for src := 0; src < f.Sched.N; src++ {
			for dst := 0; dst < f.Sched.N; dst++ {
				if src == dst {
					continue
				}
				g := ps.Group(ts, src, dst)
				for _, thr := range g.Thresholds() {
					below := g.EntryForAged(thr * 0.999)
					above := g.EntryForAged(thr * 1.001)
					if below.HopCount <= above.HopCount {
						t.Fatalf("threshold %v did not flip toward fewer hops: %d -> %d",
							thr, below.HopCount, above.HopCount)
					}
					// Costs are (nearly) equal exactly at the threshold.
					size := int64(thr / m.Alpha)
					cb := m.Cost(below.LatencySlices, below.HopCount, size)
					ca := m.Cost(above.LatencySlices, above.HopCount, size)
					rel := (cb - ca) / (cb + ca)
					if rel > 0.01 || rel < -0.01 {
						t.Fatalf("costs at threshold differ: %v vs %v", cb, ca)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no thresholds checked")
	}
}
