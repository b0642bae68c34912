// Package core implements UCMP, the paper's primary contribution:
// uniform-cost multi-path routing for reconfigurable data center networks.
//
// It provides
//   - the uniform cost metric C(p,f) = latency(p) + α·hop(p)·size(f)/B (§3.1),
//   - offline path calculation: the n-hop minimum-latency path algorithm
//     (§4.1, Alg. 1) and the Q(h_max) bound (§4.2, Appendix B),
//   - UCMP groups with properties 1-3 and latency relaxation (§4.3),
//   - online path assignment: flow size buckets, flow aging, and live tuning
//     of the weight factor α (§5.1, §5.2),
//   - backup paths for failure recovery (§5.3).
package core

import (
	"fmt"
	"strings"
)

// Hop is one ToR-to-ToR hop of an RDCN path: the next ToR and the absolute
// time slice during which the hop's circuit is up (and the packet is
// scheduled to traverse it).
type Hop struct {
	To    int
	Slice int64
}

// Path is an RDCN routing path p(src, dst, t_start) (§2.1): it is specific
// to the ToR pair and to the slice in which routing starts, because the
// circuits appear and disappear over time. Slice numbers are absolute,
// counted from the cycle containing StartSlice.
type Path struct {
	Src        int
	Dst        int
	StartSlice int64
	Hops       []Hop
}

// HopCount returns hop(p), the number of ToR-to-ToR hops.
func (p *Path) HopCount() int { return len(p.Hops) }

// EndSlice returns t_end: the absolute slice of the last-hop circuit, which
// alone determines the path's latency (§2.1).
func (p *Path) EndSlice() int64 { return p.Hops[len(p.Hops)-1].Slice }

// LatencySlices returns the Eqn. 1 latency in slices: t_end - t_start + 1.
func (p *Path) LatencySlices() int64 { return p.EndSlice() - p.StartSlice + 1 }

// Edges returns the undirected ToR pairs the path crosses, normalized with
// the smaller ToR first, for edge-disjointness analysis (§7.2).
func (p *Path) Edges() [][2]int {
	edges := make([][2]int, 0, len(p.Hops))
	from := p.Src
	for _, h := range p.Hops {
		a, b := from, h.To
		if a > b {
			a, b = b, a
		}
		edges = append(edges, [2]int{a, b})
		from = h.To
	}
	return edges
}

// String renders the path like "3 -[s2]-> 7 -[s4]-> 1".
func (p *Path) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d", p.Src)
	for _, h := range p.Hops {
		fmt.Fprintf(&b, " -[s%d]-> %d", h.Slice, h.To)
	}
	return b.String()
}

// Validate checks internal consistency: the path links Src to Dst, slices
// are non-decreasing and not before the start.
func (p *Path) Validate() error {
	if len(p.Hops) == 0 {
		return fmt.Errorf("core: empty path %d->%d", p.Src, p.Dst)
	}
	if p.Hops[len(p.Hops)-1].To != p.Dst {
		return fmt.Errorf("core: path %v does not end at dst %d", p, p.Dst)
	}
	prev := p.StartSlice
	for i, h := range p.Hops {
		if h.Slice < prev {
			return fmt.Errorf("core: path %v hop %d goes back in time", p, i)
		}
		prev = h.Slice
	}
	return nil
}
