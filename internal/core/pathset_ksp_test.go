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
	const ts = 1
	dst := f.Sched.PeerOf(ts, 0, 0)
	paths := f.Sched.SliceGraph(ts).KShortestPaths(0, dst, 12)
	var hops []int // the entries' hop counts
	for _, path := range paths {
		if h := len(path) - 1; len(hops) == 0 || hops[len(hops)-1] != h {
			hops = append(hops, h)
		}
	}
	if len(hops) < 3 {
		t.Fatalf("Yen's paths span hop counts %v: want three entries", hops)
	}
	p := newPacker(f, CostModel{LinkBps: 1, SliceMicros: 1})
	p.begin(nil, ts)
	off := p.nodePaths(paths)
	p.seal(off)
	if off == 0 || p.err != nil {
		t.Fatalf("offset %d, err %v", off, p.err)
	}
	g := GroupView{Src: 0, Dst: dst, StartSlice: ts, rec: p.words[off:], prof: &p.profiles[p.words[off]], hops: p.hops}
	if g.NumEntries() != len(hops) || g.NumPaths() != len(paths) || recLen(g.rec) != len(p.words)-int(off) {
		t.Fatalf("%d entries, %d paths, record %d of %d words", g.NumEntries(), g.NumPaths(), recLen(g.rec), len(p.words)-int(off))
	}
	for e, want := range hops {
		if ev := g.Entry(e); ev.HopCount != want || ev.LatencySlices != 1 {
			t.Fatalf("entry %d: %d hops latency %d", e, ev.HopCount, ev.LatencySlices)
		}
	}
	for i, want := range paths {
		got := []int{0}
		path := g.Path(i)
		for w := path.Walk(); ; {
			h, ok := w.Next()
			if !ok {
				break
			}
			if h.Slice != ts {
				t.Fatalf("path %d hop %d in slice %d, want %d", i, len(got)-1, h.Slice, ts)
			}
			got = append(got, h.To)
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
	p.begin(nil, 0)
	if off := p.nodePaths([][]int{{0, 1, 3}, {0, 3}}); off != 0 || !errors.Is(p.err, errPathOrder) {
		t.Fatalf("offset %d, err %v; want 0 and errPathOrder", off, p.err)
	}
	if len(p.words) != 1 {
		t.Fatalf("rejected record wrote %d words", len(p.words)-1)
	}
}
