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

// EntryIndex resolves a global bucket index against a specific UCMP group:
// the index of the group entry a packet carrying the bucket tag rides.
// Several global buckets may map to the same entry (§6.1).
func (a *FlowAger) EntryIndex(g GroupView, bucket int) int {
	return g.EntryIndexForAged(a.AgedMidpoint(bucket))
}
