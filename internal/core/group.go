package core

import (
	"fmt"
	"math"
	"sort"
)

// Entry is one hop-count level of a UCMP group: the n-hop minimum-latency
// path plus any tied parallel solutions (property 2 of §4.3).
type Entry struct {
	HopCount      int
	LatencySlices int64
	Paths         []*Path
}

// Group is a UCMP group P(src, dst, t_start) (§4.3): the candidate paths
// that can have minimum uniform cost for some flow size. Entries are sorted
// by ascending hop count and carry strictly decreasing latency
// (properties 1-3).
type Group struct {
	Src        int
	Dst        int
	StartSlice int

	Entries []Entry

	// hull indexes the Entries on the lower convex hull of (hop, latency):
	// only those can minimize the (linear-in-size) uniform cost for some
	// flow size. thrFree[j] is the ascending, α-free boundary (Eqn. 4
	// domain) at which a flow steps from hull[len(hull)-1-j] toward fewer
	// hops.
	hull    []int
	thrFree []float64
}

// BuildBuckets computes the lower convex hull of the (hop, latency) points
// and the α-free stepping thresholds between consecutive hull entries.
func (g *Group) BuildBuckets(m CostModel) {
	g.hull = g.hull[:0]
	g.thrFree = g.thrFree[:0]
	for i := range g.Entries {
		for len(g.hull) >= 2 {
			a := g.Entries[g.hull[len(g.hull)-2]]
			b := g.Entries[g.hull[len(g.hull)-1]]
			c := g.Entries[i]
			// Drop b if it lies on or above segment a-c (cross product in
			// (hop, latency) space).
			if crossAbove(a, b, c) {
				g.hull = g.hull[:len(g.hull)-1]
			} else {
				break
			}
		}
		g.hull = append(g.hull, i)
	}
	// Thresholds walk from the most-hops end (where new flows start,
	// bucket 0) toward fewer hops, ascending in aged bytes.
	for j := len(g.hull) - 1; j > 0; j-- {
		a := g.Entries[g.hull[j-1]] // fewer hops, higher latency
		b := g.Entries[g.hull[j]]   // more hops, lower latency
		g.thrFree = append(g.thrFree,
			m.AlphaFreeBoundary(a.LatencySlices, a.HopCount, b.LatencySlices, b.HopCount))
	}
}

// crossAbove reports whether b is on or above the segment from a to c in
// (hop, latency) space, i.e. b never wins the linear cost minimization.
func crossAbove(a, b, c Entry) bool {
	// (c.h-a.h)*(b.l-a.l) >= (b.h-a.h)*(c.l-a.l)
	lhs := int64(c.HopCount-a.HopCount) * (b.LatencySlices - a.LatencySlices)
	rhs := int64(b.HopCount-a.HopCount) * (c.LatencySlices - a.LatencySlices)
	return lhs >= rhs
}

// NumPaths returns the total number of paths in the group, parallels
// included (Fig 5a's group size).
func (g *Group) NumPaths() int {
	n := 0
	for _, e := range g.Entries {
		n += len(e.Paths)
	}
	return n
}

// AllPaths returns every path in the group in entry order.
func (g *Group) AllPaths() []*Path {
	out := make([]*Path, 0, g.NumPaths())
	for _, e := range g.Entries {
		out = append(out, e.Paths...)
	}
	return out
}

// Thresholds returns the group's ascending α-free bucket boundaries
// (Eqn. 4): a flow steps to the next bucket each time α×bytesSent crosses
// one. The slice is shared; callers must not modify it.
func (g *Group) Thresholds() []float64 { return g.thrFree }

// BucketCount returns the number of flow-size buckets of this group.
func (g *Group) BucketCount() int { return len(g.thrFree) + 1 }

// EntryForAged returns the hull entry minimizing uniform cost for a flow
// whose α-scaled bytes sent equal `aged` (flow aging, §5.1). Bucket 0 (new
// flows) maps to the globally minimum-latency entry; as the flow ages it
// steps toward fewer hops.
func (g *Group) EntryForAged(aged float64) *Entry {
	return &g.Entries[g.hull[g.hullIndexForAged(aged)]]
}

func (g *Group) hullIndexForAged(aged float64) int {
	// Number of thresholds strictly below the aged byte count = buckets
	// stepped through so far.
	crossed := sort.SearchFloat64s(g.thrFree, aged)
	return len(g.hull) - 1 - crossed
}

// BucketForAged returns the bucket index (0 = newest flow) for an α-scaled
// byte count.
func (g *Group) BucketForAged(aged float64) int {
	return sort.SearchFloat64s(g.thrFree, aged)
}

// EntryForBucket maps a bucket index (possibly beyond the last threshold)
// to its hull entry.
func (g *Group) EntryForBucket(bucket int) *Entry {
	if bucket >= len(g.hull) {
		bucket = len(g.hull) - 1
	}
	if bucket < 0 {
		bucket = 0
	}
	return &g.Entries[g.hull[len(g.hull)-1-bucket]]
}

// MinCostEntry scans all entries for the exact minimum uniform cost with a
// known flow size (the "accurate flow size" variant of Fig 8). Ties resolve
// to fewer hops.
func (g *Group) MinCostEntry(m CostModel, sizeBytes int64) *Entry {
	best := -1
	bestCost := math.Inf(1)
	for i, e := range g.Entries {
		c := m.Cost(e.LatencySlices, e.HopCount, sizeBytes)
		if c < bestCost {
			best, bestCost = i, c
		}
	}
	return &g.Entries[best]
}

// PathFor picks the concrete path for a flow: the entry is selected by the
// aged byte count, and ties among parallel minimum-cost paths are broken by
// the flow's 5-tuple hash, like ECMP (§5.1).
func (g *Group) PathFor(aged float64, hash uint64) *Path {
	e := g.EntryForAged(aged)
	return e.Paths[hash%uint64(len(e.Paths))]
}

// Validate checks the group invariants (§4.3 properties).
func (g *Group) Validate() error {
	if len(g.Entries) == 0 {
		return fmt.Errorf("core: empty group %d->%d@%d", g.Src, g.Dst, g.StartSlice)
	}
	for i, e := range g.Entries {
		if len(e.Paths) == 0 {
			return fmt.Errorf("core: entry %d has no paths", i)
		}
		for _, p := range e.Paths {
			if err := p.Validate(); err != nil {
				return err
			}
			if p.HopCount() != e.HopCount {
				return fmt.Errorf("core: entry hop count %d vs path %d", e.HopCount, p.HopCount())
			}
			if p.LatencySlices() != e.LatencySlices {
				return fmt.Errorf("core: entry latency %d vs path %d", e.LatencySlices, p.LatencySlices())
			}
		}
		if i > 0 {
			prev := g.Entries[i-1]
			if e.HopCount <= prev.HopCount {
				return fmt.Errorf("core: entries not ascending in hops")
			}
			if e.LatencySlices >= prev.LatencySlices {
				return fmt.Errorf("core: property 3 violated: %d hops lat %d vs %d hops lat %d",
					prev.HopCount, prev.LatencySlices, e.HopCount, e.LatencySlices)
			}
		}
	}
	for i := 1; i < len(g.thrFree); i++ {
		if g.thrFree[i] < g.thrFree[i-1] {
			return fmt.Errorf("core: thresholds not ascending: %v", g.thrFree)
		}
	}
	return nil
}
