package core

import (
	"errors"
	"fmt"
	"slices"

	"ucmp/internal/topo"
)

// errPathOrder is the packer's error for baseline paths that are not in
// ascending hop count: the store keeps them in the order given, one entry per
// hop count, so a shorter path after a longer one has no entry to go in.
var errPathOrder = errors.New("core: baseline paths not in ascending hop count")

// BuildKSPPathSet stores the k-shortest-path baselines' groups (§2.2) in the
// packed store UCMP uses: for every starting slice and ToR pair, the up-to-k
// loopless shortest paths Yen's algorithm finds on that slice's graph — the
// full SliceGraph for KSP, the StableSliceGraph (circuits that survive the
// next reconfiguration) for Opera when stable is set. A baseline path rides
// one slice, so every entry has latency 1 and every hop lands in t_start;
// entries hold the paths of one hop count in Yen's order, and a pair Yen
// cannot connect has no group. It panics with the packer's error, like
// BuildPathSetOpts.
func BuildKSPPathSet(f *topo.Fabric, k int, stable bool) *PathSet {
	n, s := f.Sched.N, f.Sched.S
	graph := f.Sched.SliceGraph
	if stable {
		graph = f.Sched.StableSliceGraph
	}
	ps := &PathSet{
		F: f,
		// Records are sealed like UCMP's, since a view needs a profile; the
		// baselines never read its buckets, and its thresholds are α-free.
		Model: CostModel{LinkBps: float64(f.LinkBps), SliceMicros: f.SliceDuration.Micros()},
		segs:  make([]segment, s),
		spine: make([]uint32, s*n*n),
		hops:  newHopTable(f.Sched),
	}
	err := ps.eachSlice(effectiveWorkers(0, s), func() func(*packer, int) {
		var sc topo.YenScratch // one per worker: reused across its slices' pairs
		return func(p *packer, ts int) {
			g := graph(ts)
			p.begin(p.words, ts)
			for src := 0; src < n; src++ {
				spine := ps.spine[(ts*n+src)*n : (ts*n+src+1)*n]
				for dst := range spine {
					if dst == src {
						continue
					}
					if off := p.nodePaths(g.KShortestPathsWith(&sc, src, dst, k)); off != 0 {
						spine[dst] = off
						p.seal(off)
					}
				}
			}
			seg := p.segment()
			seg.words = slices.Clone(seg.words)
			ps.segs[ts] = seg
		}
	})
	if err != nil {
		panic(err)
	}
	return ps
}

// nodePaths appends the record of one baseline group — paths are node
// sequences, source first and destination last, taken within t_start — and
// returns its spine offset, or 0 when there are no paths. Paths of equal hop
// count form one entry, in the order given, with latency 1; each stores its
// hops to intermediate ToRs at relative slice 0. A path shorter than the one
// before it fails the packer with errPathOrder: the order is the caller's to
// keep, never re-sorted here. The profile id is still zero: see seal.
func (p *packer) nodePaths(paths [][]int) uint32 {
	if len(paths) == 0 {
		return 0
	}
	entries := 1
	for i := 1; i < len(paths); i++ {
		h, prev := len(paths[i]), len(paths[i-1])
		if h < prev {
			if p.err == nil {
				p.err = fmt.Errorf("%w: path %d has %d hops after %d on fabric N=%d d=%d S=%d",
					errPathOrder, i, h-1, prev-1, p.n, p.d, p.s)
			}
			return 0
		}
		if h > prev {
			entries++
		}
	}
	off := p.offset()
	at := p.header(entries)
	e, first := 0, 0
	for i, nodes := range paths {
		if len(nodes) > len(paths[first]) {
			p.setEntry(at, e, len(paths[first])-1, i-first, 1)
			e, first = e+1, i
		}
		for k, v := range nodes[1 : len(nodes)-1] {
			p.words = append(p.words, p.hop(nodes[k], v, 0))
		}
	}
	p.setEntry(at, e, len(paths[first])-1, len(paths)-first, 1)
	return off
}
