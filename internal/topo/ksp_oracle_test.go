package topo

import (
	"fmt"
	"reflect"
	"testing"
)

// yenOracle is Graph.KShortestPaths as it stood before the search state moved
// into a reused scratch — a ban map, a blocked array and a predecessor array
// allocated per spur search — kept verbatim as the reference the rewrite must
// equal path for path and order for order.
func yenOracle(g *Graph, src, dst, k int) [][]int {
	first := g.ShortestPath(src, dst)
	if first == nil || k <= 0 {
		return nil
	}
	paths := [][]int{first}
	var candidates [][]int
	for len(paths) < k {
		prev := paths[len(paths)-1]
		for i := 0; i < len(prev)-1; i++ {
			spurNode := prev[i]
			rootPath := prev[:i+1]
			// Build a graph with removed edges/nodes.
			banned := make(map[[2]int]bool)
			for _, p := range paths {
				if len(p) > i && equalPrefix(p, rootPath) {
					banned[[2]int{p[i], p[i+1]}] = true
					banned[[2]int{p[i+1], p[i]}] = true
				}
			}
			blockedNode := make([]bool, g.N)
			for _, v := range rootPath[:len(rootPath)-1] {
				blockedNode[v] = true
			}
			spur := yenOracleFiltered(g, spurNode, dst, banned, blockedNode)
			if spur == nil {
				continue
			}
			total := append(append([]int{}, rootPath[:len(rootPath)-1]...), spur...)
			if !containsPath(paths, total) && !containsPath(candidates, total) {
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		// Pick the shortest candidate.
		best := 0
		for i := 1; i < len(candidates); i++ {
			if len(candidates[i]) < len(candidates[best]) {
				best = i
			}
		}
		paths = append(paths, candidates[best])
		candidates = append(candidates[:best], candidates[best+1:]...)
	}
	return paths
}

func yenOracleFiltered(g *Graph, src, dst int, banned map[[2]int]bool, blockedNode []bool) []int {
	if src == dst {
		return []int{src}
	}
	prev := make([]int, g.N)
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = src
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Adj[u] {
			if blockedNode[v] || prev[v] >= 0 || banned[[2]int{u, v}] {
				continue
			}
			prev[v] = u
			if v == dst {
				return buildPath(prev, src, dst)
			}
			queue = append(queue, v)
		}
	}
	return nil
}

// sameAsYenOracle compares the two implementations for k = 1 and k = 5 on
// the ordered pairs of g whose source is first, first+stride, …, on one
// scratch carried across pairs, graphs and ks.
func sameAsYenOracle(t *testing.T, sc *YenScratch, g *Graph, first, stride int, what string) {
	t.Helper()
	for _, k := range []int{1, 5} {
		for src := first; src < g.N; src += stride {
			for dst := 0; dst < g.N; dst++ {
				if src == dst {
					continue
				}
				want := yenOracle(g, src, dst, k)
				got := g.KShortestPathsWith(sc, src, dst, k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, %d->%d, k=%d:\n got %v\nwant %v", what, src, dst, k, got, want)
				}
			}
		}
	}
}

// Every slice graph and every stable slice graph of the round-robin and Opera
// schedules, at 16 ToRs and (without -short) at the paper's 108. The oracle
// is what is slow — every pair of the 108-ToR Opera schedule's 216 graphs
// takes it over three minutes — so that schedule is walked with every
// eighteenth source, starting one later each slice: every graph, every
// source, an eighteenth of the pairs. (The whole of it was compared once, when
// the rewrite landed.)
func TestKShortestPathsMatchesOracle(t *testing.T) {
	cases := []struct {
		name   string
		s      *Schedule
		stride int
	}{
		{"rr16x3", RoundRobin(16, 3), 1},
		{"opera16x4", Opera(16, 4), 1},
		{"rr108x6", RoundRobin(108, 6), 1},
		{"opera108x6", Opera(108, 6), 18},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && c.s.N > 16 {
				t.Skip("paper-size schedule (tens of seconds of oracle)")
			}
			t.Parallel()
			var sc YenScratch
			for sl := 0; sl < c.s.S; sl++ {
				sameAsYenOracle(t, &sc, c.s.SliceGraph(sl), sl%c.stride, c.stride, fmt.Sprintf("slice graph %d", sl))
				sameAsYenOracle(t, &sc, c.s.StableSliceGraph(sl), sl%c.stride, c.stride, fmt.Sprintf("stable slice graph %d", sl))
			}
		})
	}
}

// Corners the schedules do not reach: unreachable and trivial pairs, k <= 0,
// a scratch that has seen a larger graph, and an epoch counter about to wrap.
func TestKShortestPathsScratchCorners(t *testing.T) {
	diamond := &Graph{N: 7, Adj: [][]int{
		{1, 2, 4}, {0, 3}, {0, 3}, {1, 2, 5}, {0, 5}, {4, 3}, {},
	}}
	var sc YenScratch
	sameAsYenOracle(t, &sc, RoundRobin(16, 3).SliceGraph(0), 0, 1, "warm-up on a larger graph")
	sc.epoch = ^uint32(0) - 3
	sameAsYenOracle(t, &sc, diamond, 0, 1, "diamond across the epoch wrap")
	if sc.epoch > 1000 {
		t.Fatalf("epoch %d: the counter did not wrap", sc.epoch)
	}
	for _, q := range [][3]int{{0, 6, 5}, {2, 2, 5}, {0, 3, 0}, {0, 3, -1}} {
		want := yenOracle(diamond, q[0], q[1], q[2])
		if got := diamond.KShortestPathsWith(&sc, q[0], q[1], q[2]); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d->%d, k=%d: got %v, want %v", q[0], q[1], q[2], got, want)
		}
	}
}
