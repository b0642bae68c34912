package topo

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ucmp/internal/sim"
)

func TestOneFactorizationCoversAllPairs(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 108} {
		rounds := OneFactorization(n)
		if len(rounds) != n-1 {
			t.Fatalf("n=%d: %d rounds, want %d", n, len(rounds), n-1)
		}
		seen := make(map[[2]int]int)
		for r, m := range rounds {
			if err := m.Validate(); err != nil {
				t.Fatalf("n=%d round %d: %v", n, r, err)
			}
			for i, p := range m {
				if i < p {
					seen[[2]int{i, p}]++
				}
			}
		}
		want := n * (n - 1) / 2
		if len(seen) != want {
			t.Fatalf("n=%d: %d distinct pairs, want %d", n, len(seen), want)
		}
		for pair, cnt := range seen {
			if cnt != 1 {
				t.Fatalf("n=%d: pair %v appears %d times", n, pair, cnt)
			}
		}
	}
}

func TestOneFactorizationOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd n did not panic")
		}
	}()
	OneFactorization(7)
}

func TestMatchingValidate(t *testing.T) {
	if err := (Matching{1, 0, 3, 2}).Validate(); err != nil {
		t.Fatalf("valid matching rejected: %v", err)
	}
	if err := (Matching{0, 1}).Validate(); err == nil {
		t.Fatal("self-matching accepted")
	}
	if err := (Matching{1, 2, 0}).Validate(); err == nil {
		t.Fatal("asymmetric matching accepted")
	}
	if err := (Matching{5, 0}).Validate(); err == nil {
		t.Fatal("out-of-range peer accepted")
	}
}

// every schedule kind must give every pair a direct circuit each cycle and
// keep every slice graph d-regular (paper §2.1).
func TestScheduleCoverage(t *testing.T) {
	kinds := []struct {
		name string
		mk   func(n, d int) *Schedule
	}{
		{"round-robin", func(n, d int) *Schedule { return RoundRobin(n, d) }},
		{"random", func(n, d int) *Schedule { return Random(n, d, 42) }},
		{"opera", func(n, d int) *Schedule { return Opera(n, d) }},
	}
	for _, k := range kinds {
		for _, nd := range [][2]int{{8, 2}, {16, 3}, {108, 6}} {
			n, d := nd[0], nd[1]
			s := k.mk(n, d)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i == j {
						continue
					}
					if len(s.DirectSlices(i, j)) == 0 {
						t.Fatalf("%s(%d,%d): pair (%d,%d) never connected", k.name, n, d, i, j)
					}
				}
			}
			// Each ToR has exactly d circuits (deduped neighbors may be
			// fewer only if two switches realize the same pair).
			for sl := 0; sl < s.S; sl++ {
				for i := 0; i < n; i++ {
					nb := s.Neighbors(nil, sl, i)
					if len(nb) > d || len(nb) < 1 {
						t.Fatalf("%s: slice %d tor %d has %d neighbors", k.name, sl, i, len(nb))
					}
					for _, p := range nb {
						if p == i {
							t.Fatalf("%s: tor %d self-neighbor", k.name, i)
						}
					}
				}
			}
		}
	}
}

func TestRoundRobinSliceCount(t *testing.T) {
	s := RoundRobin(108, 6)
	if s.S != 18 {
		t.Fatalf("108/6 round-robin: %d slices, want 18 (paper §8: N/d)", s.S)
	}
	s = RoundRobin(16, 3)
	if s.S != 5 {
		t.Fatalf("16/3 round-robin: %d slices, want 5", s.S)
	}
}

func TestOperaOneSwitchPerBoundary(t *testing.T) {
	s := Opera(16, 3)
	for sl := 0; sl < s.S; sl++ {
		cnt := 0
		for sw := 0; sw < s.D; sw++ {
			if s.ReconfiguresAt(sl, sw) {
				cnt++
			}
		}
		if cnt != 1 {
			t.Fatalf("opera slice %d: %d switches reconfigure, want 1", sl, cnt)
		}
	}
	// Matchings persist: switch sw's matching during slice sl equals its
	// matching during slice sl+1 unless it reconfigures entering sl+1.
	for sl := 0; sl+1 < s.S; sl++ {
		for sw := 0; sw < s.D; sw++ {
			a := s.MatchingAt(sl, sw)
			b := s.MatchingAt(sl+1, sw)
			same := true
			for i := range a {
				if a[i] != b[i] {
					same = false
					break
				}
			}
			if s.ReconfiguresAt(sl+1, sw) {
				continue
			}
			if !same {
				t.Fatalf("opera: switch %d changed matching entering slice %d without reconfiguring", sw, sl+1)
			}
		}
	}
}

func TestNextDirect(t *testing.T) {
	s := RoundRobin(8, 2)
	for i := 0; i < s.N; i++ {
		for j := 0; j < s.N; j++ {
			if i == j {
				continue
			}
			for from := int64(0); from < int64(3*s.S); from++ {
				got := s.NextDirect(i, j, from)
				if got < from {
					t.Fatalf("NextDirect(%d,%d,%d)=%d < from", i, j, from, got)
				}
				if got-from >= int64(s.S) {
					t.Fatalf("NextDirect(%d,%d,%d)=%d waits a full cycle or more", i, j, from, got)
				}
				cyc := int(got % int64(s.S))
				if s.SwitchFor(cyc, i, j) < 0 {
					t.Fatalf("NextDirect(%d,%d,%d)=%d but pair not connected in slice %d", i, j, from, got, cyc)
				}
				// No earlier slot.
				for a := from; a < got; a++ {
					if s.SwitchFor(int(a%int64(s.S)), i, j) >= 0 {
						t.Fatalf("NextDirect(%d,%d,%d)=%d missed earlier slot %d", i, j, from, got, a)
					}
				}
			}
		}
	}
}

// Property-based: WaitSlices is always in [0, S).
func TestWaitSlicesBounded(t *testing.T) {
	s := Random(16, 3, 7)
	prop := func(a, b uint8, from uint16) bool {
		i, j := int(a)%s.N, int(b)%s.N
		if i == j {
			return true
		}
		w := s.WaitSlices(i, j, int64(from))
		return w >= 0 && w < int64(s.S)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	good := PaperDefault()
	if err := good.Validate(); err != nil {
		t.Fatalf("paper default invalid: %v", err)
	}
	bad := []Config{
		{},
		func() Config { c := PaperDefault(); c.NumToRs = 7; return c }(),
		func() Config { c := PaperDefault(); c.Uplinks = 0; return c }(),
		func() Config { c := PaperDefault(); c.ReconfDelay = c.SliceDuration; return c }(),
		func() Config { c := PaperDefault(); c.MTU = 0; return c }(),
		func() Config { c := PaperDefault(); c.LinkBps = 0; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestHopsPerSlice(t *testing.T) {
	c := PaperDefault() // 100 Gbps, 1500 B -> 120 ns serialization, 500 ns prop
	if got := c.SerializationDelay(1500); got != 120*sim.Nanosecond {
		t.Fatalf("serialization = %v, want 120ns", got)
	}
	// Appendix B: 1 us slice -> floor(1000/620) = 1 hop.
	c.SliceDuration = 1 * sim.Microsecond
	if got := c.HopsPerSlice(); got != 1 {
		t.Fatalf("h_slice(1us) = %d, want 1", got)
	}
	// Appendix B: 10 us slice -> floor(10000/620) = 16 hops.
	c.SliceDuration = 10 * sim.Microsecond
	if got := c.HopsPerSlice(); got != 16 {
		t.Fatalf("h_slice(10us) = %d, want 16", got)
	}
}

func TestDutyCycle(t *testing.T) {
	c := PaperDefault()
	c.SliceDuration = 50 * sim.Microsecond
	c.ReconfDelay = 1 * sim.Microsecond
	if got := c.DutyCycle(); got != 0.98 {
		t.Fatalf("duty cycle = %v, want 0.98 (paper §7.4)", got)
	}
	c.ReconfDelay = 10 * sim.Microsecond
	if got := c.DutyCycle(); got < 0.79 || got > 0.81 {
		t.Fatalf("duty cycle = %v, want 0.8", got)
	}
}

func TestFabricSliceArithmetic(t *testing.T) {
	f := MustFabric(Scaled(), "round-robin", 1)
	u := f.SliceDuration
	if f.AbsSlice(0) != 0 || f.AbsSlice(u-1) != 0 || f.AbsSlice(u) != 1 {
		t.Fatal("AbsSlice boundary arithmetic wrong")
	}
	if f.SliceStart(3) != 3*u || f.SliceEnd(3) != 4*u {
		t.Fatal("SliceStart/End wrong")
	}
	s := int64(f.Sched.S)
	if f.CyclicSlice(s+2) != 2 {
		t.Fatal("CyclicSlice wrong")
	}
	if f.CycleDuration() != sim.Time(s)*u {
		t.Fatal("CycleDuration wrong")
	}
	if f.LatencySlices(5, 9) != 5 {
		t.Fatal("Eqn 1 latency: end-start+1 expected")
	}
}

func TestFabricUnknownKind(t *testing.T) {
	if _, err := NewFabric(Scaled(), "nope", 1); err == nil {
		t.Fatal("unknown schedule kind accepted")
	}
}

func TestSliceGraphRegularAndConnected(t *testing.T) {
	s := RoundRobin(108, 6)
	for sl := 0; sl < s.S; sl++ {
		g := s.SliceGraph(sl)
		if d := g.Diameter(); d < 0 {
			t.Fatalf("slice %d graph disconnected", sl)
		}
		for i, adj := range g.Adj {
			if len(adj) != 6 {
				t.Fatalf("slice %d tor %d degree %d, want 6", sl, i, len(adj))
			}
		}
	}
}

func TestStableSliceGraphOpera(t *testing.T) {
	s := Opera(16, 4)
	for sl := 0; sl < s.S; sl++ {
		g := s.StableSliceGraph(sl)
		full := s.SliceGraph(sl)
		// Stable graph has at most the edges of the full graph and exactly
		// d-1 circuits per ToR (some may dedupe).
		for i := range g.Adj {
			if len(g.Adj[i]) > len(full.Adj[i]) {
				t.Fatalf("stable graph larger than full graph at tor %d", i)
			}
			if len(g.Adj[i]) > s.D-1 {
				t.Fatalf("stable graph keeps %d circuits at tor %d, want <= %d", len(g.Adj[i]), i, s.D-1)
			}
		}
	}
}

func TestBFSAndShortestPath(t *testing.T) {
	g := &Graph{N: 5, Adj: [][]int{{1}, {0, 2}, {1, 3}, {2, 4}, {3}}}
	dist := g.BFS(0)
	for i, d := range dist {
		if d != i {
			t.Fatalf("dist[%d]=%d, want %d", i, d, i)
		}
	}
	p := g.ShortestPath(0, 4)
	if len(p) != 5 {
		t.Fatalf("path %v, want length 5", p)
	}
	if g.Diameter() != 4 {
		t.Fatalf("diameter %d, want 4", g.Diameter())
	}
	// Disconnected.
	g2 := &Graph{N: 3, Adj: [][]int{{1}, {0}, {}}}
	if g2.Diameter() != -1 {
		t.Fatal("disconnected diameter should be -1")
	}
	if g2.ShortestPath(0, 2) != nil {
		t.Fatal("unreachable path should be nil")
	}
	if p := g2.ShortestPath(2, 2); len(p) != 1 || p[0] != 2 {
		t.Fatal("trivial path wrong")
	}
}

// TestBFSIntoMatchesBFS: a search on one scratch reused across every source
// of every slice graph — left dirty by the graph before — gives the
// distances of a search on fresh arrays.
func TestBFSIntoMatchesBFS(t *testing.T) {
	dist, queue := make([]int, 108), []int(nil)
	for _, s := range []*Schedule{RoundRobin(16, 3), Opera(16, 4), RoundRobin(108, 6)} {
		for sl := 0; sl < s.S; sl++ {
			g := s.SliceGraph(sl)
			for src := 0; src < g.N; src++ {
				got := g.BFSInto(src, dist[:g.N], queue)
				if want := g.BFS(src); !slices.Equal(got, want) {
					t.Fatalf("N=%d d=%d slice %d src %d: BFSInto %v, BFS %v", s.N, s.D, sl, src, got, want)
				}
			}
		}
	}
}

// TestDiameterAllocsConstant: the all-pairs diameter allocates one scratch
// per call, not one per source, at any N.
func TestDiameterAllocsConstant(t *testing.T) {
	for _, s := range []*Schedule{RoundRobin(16, 3), RoundRobin(108, 6)} {
		g := s.SliceGraph(0)
		if allocs := testing.AllocsPerRun(3, func() { g.Diameter() }); allocs > 2 {
			t.Fatalf("N=%d: Diameter makes %.0f allocations, want at most 2", s.N, allocs)
		}
	}
}

func TestKShortestPaths(t *testing.T) {
	// A diamond: 0-1-3, 0-2-3, plus direct 0-3 via a longer chain 0-4-5-3.
	g := &Graph{N: 6, Adj: [][]int{
		{1, 2, 4}, {0, 3}, {0, 3}, {1, 2, 5}, {0, 5}, {4, 3},
	}}
	paths := g.KShortestPaths(0, 3, 5)
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3: %v", len(paths), paths)
	}
	if len(paths[0]) != 3 || len(paths[1]) != 3 {
		t.Fatalf("first two paths should be 2-hop: %v", paths)
	}
	if len(paths[2]) != 4 {
		t.Fatalf("third path should be 3-hop: %v", paths)
	}
	// Paths must be loopless and valid.
	for _, p := range paths {
		seen := map[int]bool{}
		for i, v := range p {
			if seen[v] {
				t.Fatalf("path %v has a loop", p)
			}
			seen[v] = true
			if i > 0 {
				ok := false
				for _, nb := range g.Adj[p[i-1]] {
					if nb == v {
						ok = true
					}
				}
				if !ok {
					t.Fatalf("path %v uses nonexistent edge %d-%d", p, p[i-1], v)
				}
			}
		}
	}
}

func TestKShortestPathsOnScheduleGraph(t *testing.T) {
	s := RoundRobin(16, 3)
	g := s.SliceGraph(0)
	for src := 0; src < 4; src++ {
		for dst := 8; dst < 12; dst++ {
			paths := g.KShortestPaths(src, dst, 5)
			if len(paths) == 0 {
				t.Fatalf("no path %d->%d", src, dst)
			}
			for i := 1; i < len(paths); i++ {
				if len(paths[i]) < len(paths[i-1]) {
					t.Fatalf("paths not sorted by length: %v", paths)
				}
			}
		}
	}
}

func TestMaxDiameterPaper(t *testing.T) {
	s := RoundRobin(108, 6)
	d := s.MaxDiameter()
	// 6-regular graphs on 108 nodes: diameter should be small (expander-ish);
	// Appendix B reports h_static = 5 for (108,6).
	if d < 3 || d > 6 {
		t.Fatalf("h_static = %d, expected 3..6 for (108,6)", d)
	}
}
