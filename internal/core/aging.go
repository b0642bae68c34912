package core

import "sort"

// FlowAger is the host-side flow aging and bucketing module (§5.1, §6.1).
// It tracks nothing itself — callers feed it each flow's bytes sent — and
// maps the α-scaled byte count onto the globally recognizable bucket
// intervals formed by the union of all group boundary values. The bucket
// index is what gets stamped into each packet's DSCP field (6 bits, up to
// 64 buckets, enough per Table 2).
type FlowAger struct {
	thresholds []float64 // ascending, α-free (Eqn. 4 domain)
	alpha      float64
}

// NewFlowAger builds the ager from a computed PathSet.
func NewFlowAger(ps *PathSet) *FlowAger {
	return &FlowAger{thresholds: ps.GlobalThresholds(), alpha: ps.Model.Alpha}
}

// NewFlowAgerFromThresholds builds an ager directly, for tests.
func NewFlowAgerFromThresholds(thresholds []float64, alpha float64) *FlowAger {
	return &FlowAger{thresholds: thresholds, alpha: alpha}
}

// SetAlpha applies a live α update broadcast by the operator (§5.2). The
// thresholds are α-free, so only the mapping function changes.
func (a *FlowAger) SetAlpha(alpha float64) { a.alpha = alpha }

// Alpha returns the current weight factor.
func (a *FlowAger) Alpha() float64 { return a.alpha }

// NumBuckets returns the number of global buckets.
func (a *FlowAger) NumBuckets() int { return len(a.thresholds) + 1 }

// Bucket returns the global bucket index (0 = newest flow) for a flow that
// has sent bytesSent bytes so far.
func (a *FlowAger) Bucket(bytesSent int64) int {
	aged := a.alpha * float64(bytesSent)
	return sort.SearchFloat64s(a.thresholds, aged)
}

// AgedMidpoint returns a representative α-scaled value inside the given
// global bucket, used to map a bucket back onto a group's (coarser) own
// buckets without equality edge cases.
func (a *FlowAger) AgedMidpoint(bucket int) float64 {
	switch {
	case len(a.thresholds) == 0:
		return 0
	case bucket <= 0:
		return a.thresholds[0] / 2
	case bucket >= len(a.thresholds):
		return a.thresholds[len(a.thresholds)-1] * 2
	default:
		return (a.thresholds[bucket-1] + a.thresholds[bucket]) / 2
	}
}

// EntryForBucket resolves a global bucket index against a specific UCMP
// group: several global buckets may map to the same path (§6.1).
func (a *FlowAger) EntryForBucket(g *Group, bucket int) *Entry {
	return g.EntryForAged(a.AgedMidpoint(bucket))
}

// EntryIndex is EntryForBucket on a packed-store view: the index of the
// group entry a packet carrying the global bucket tag rides.
func (a *FlowAger) EntryIndex(g GroupView, bucket int) int {
	return g.EntryIndexForAged(a.AgedMidpoint(bucket))
}

// PathForBucket picks the concrete path for a packet carrying a global
// bucket tag, breaking parallel-path ties with the flow hash.
func (a *FlowAger) PathForBucket(g *Group, bucket int, hash uint64) *Path {
	e := a.EntryForBucket(g, bucket)
	return e.Paths[hash%uint64(len(e.Paths))]
}
