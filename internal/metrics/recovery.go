package metrics

import (
	"fmt"
	"strings"

	"ucmp/internal/netsim"
	"ucmp/internal/sim"
)

// RecoveryStats summarizes the §5.3 online-recovery outcome of a run under
// fault injection: per-class counts of data-packet route plans that left
// the wanted path, the fault-drop count, and the time-to-reroute histogram.
type RecoveryStats struct {
	SameLength int64
	Shorter    int64
	Longer     int64
	Backup     int64
	Failed     int64 // no healthy alternative: the packet was dropped
	FaultDrops int64 // packets dropped at (or parked in) a dead ToR

	// Wait is the time-to-reroute histogram (netsim.Counters.RerouteWait):
	// bucket 0 counts sub-microsecond waits, bucket i waits in
	// [2^(i-1), 2^i) µs, the last bucket open-ended.
	Wait [netsim.RerouteWaitBuckets]int64
}

// Recovery extracts the recovery view from a run's counters.
func Recovery(c netsim.Counters) RecoveryStats {
	return RecoveryStats{
		SameLength: c.RecoveredSameLength,
		Shorter:    c.RecoveredShorter,
		Longer:     c.RecoveredLonger,
		Backup:     c.RecoveredBackup,
		Failed:     c.RecoveryFailed,
		FaultDrops: c.FaultDrops,
		Wait:       c.RerouteWait,
	}
}

// Recovered is the number of plans resolved onto a healthy alternative.
func (r RecoveryStats) Recovered() int64 {
	return r.SameLength + r.Shorter + r.Longer + r.Backup
}

// Total is every plan that had to leave the wanted path, failed included.
func (r RecoveryStats) Total() int64 { return r.Recovered() + r.Failed }

// WaitPercentile returns an upper bound on the p-quantile time-to-reroute
// (the upper edge of the histogram bucket containing it), or 0 when the
// histogram is empty. p is in [0, 1].
func (r RecoveryStats) WaitPercentile(p float64) sim.Time {
	var total int64
	for _, c := range r.Wait {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := int64(p * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i, c := range r.Wait {
		seen += c
		if seen > rank {
			return waitBucketHi(i)
		}
	}
	return waitBucketHi(len(r.Wait) - 1)
}

// waitBucketHi is the exclusive upper edge of histogram bucket i.
func waitBucketHi(i int) sim.Time {
	return sim.Time(int64(1)<<uint(i)) * sim.Microsecond
}

// WaitHistogram renders the non-empty histogram buckets compactly, e.g.
// "<1µs:12 [1,2)µs:3 [512,1024)µs:7".
func (r RecoveryStats) WaitHistogram() string {
	var b strings.Builder
	for i, c := range r.Wait {
		if c == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		switch {
		case i == 0:
			fmt.Fprintf(&b, "<1µs:%d", c)
		case i == len(r.Wait)-1:
			fmt.Fprintf(&b, ">=%dµs:%d", int64(1)<<uint(i-1), c)
		default:
			fmt.Fprintf(&b, "[%d,%d)µs:%d", int64(1)<<uint(i-1), int64(1)<<uint(i), c)
		}
	}
	if b.Len() == 0 {
		return "(empty)"
	}
	return b.String()
}
