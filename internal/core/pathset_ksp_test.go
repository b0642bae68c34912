package core

import (
	"errors"
	"slices"
	"testing"
)

// TestNodePathsLayout: a baseline record holds one entry per hop count with
// latency 1, its paths in the order given; GroupView.Path counts across
// entries and every hop, the implied last one included, lands in t_start.
func TestNodePathsLayout(t *testing.T) {
	f := symFabric(t, 8, 4)
	p := newPacker(f, CostModel{LinkBps: 1, SliceMicros: 1})
	p.begin(nil)
	paths := [][]int{{0, 3}, {0, 5, 3}, {0, 1, 3}, {0, 1, 2, 3}}
	off := p.nodePaths(paths)
	p.seal(off)
	if off == 0 || p.err != nil {
		t.Fatalf("offset %d, err %v", off, p.err)
	}
	g := GroupView{Src: 0, Dst: 3, StartSlice: 2, rec: p.words[off:], prof: &p.profiles[p.words[off]], n: 8}
	if g.NumEntries() != 3 || g.NumPaths() != len(paths) || recLen(g.rec) != len(p.words)-int(off) {
		t.Fatalf("%d entries, %d paths, record %d of %d words", g.NumEntries(), g.NumPaths(), recLen(g.rec), len(p.words)-int(off))
	}
	for e, want := range []int{1, 2, 3} {
		if ev := g.Entry(e); ev.HopCount != want || ev.LatencySlices != 1 {
			t.Fatalf("entry %d: %d hops latency %d", e, ev.HopCount, ev.LatencySlices)
		}
	}
	for i, want := range paths {
		v := g.Path(i)
		got := []int{0}
		for k := 0; k < v.HopCount(); k++ {
			if h := v.Hop(k); h.Slice != 2 {
				t.Fatalf("path %d hop %d in slice %d, want 2", i, k, h.Slice)
			}
			got = append(got, v.Hop(k).To)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("path %d: %v, want %v", i, got, want)
		}
	}
	if p.nodePaths(nil) != 0 {
		t.Fatal("no paths must leave the spine slot empty")
	}
}

// TestNodePathsRejectsDescendingHops: the store keeps the caller's path
// order, so a path shorter than the one before it fails the packer with
// errPathOrder and writes nothing.
func TestNodePathsRejectsDescendingHops(t *testing.T) {
	f := symFabric(t, 8, 4)
	p := newPacker(f, CostModel{LinkBps: 1, SliceMicros: 1})
	p.begin(nil)
	if off := p.nodePaths([][]int{{0, 1, 3}, {0, 3}}); off != 0 || !errors.Is(p.err, errPathOrder) {
		t.Fatalf("offset %d, err %v; want 0 and errPathOrder", off, p.err)
	}
	if len(p.words) != 1 {
		t.Fatalf("rejected record wrote %d words", len(p.words)-1)
	}
}
