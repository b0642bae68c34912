package harness

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ucmp/internal/checkpoint"
	"ucmp/internal/netsim"
	"ucmp/internal/sim"
)

// CollectSchedStats enables scheduler-internals aggregation across runs
// (pending high-water mark, wheel cascades, timer cancels, shard window and
// mailbox traffic). Off by default; cmd/ucmpbench flips it with -schedstats.
var CollectSchedStats = false

var (
	schedMu    sync.Mutex
	schedAgg   sim.SchedStats
	kindAgg    sim.EventKinds
	memAgg     netsim.MemStats
	shardAgg   sim.ShardStats
	shardNotes []string
)

// recordSchedStats folds one run's scheduler internals into the aggregate:
// counters sum across runs, the high-water mark takes the max. It takes a
// stats value (not an engine) so serial runs pass eng.SchedStats() and
// sharded runs pass the ShardedEngine's cross-domain aggregate.
func recordSchedStats(s sim.SchedStats) {
	if !CollectSchedStats {
		return
	}
	schedMu.Lock()
	if s.PendingHighWater > schedAgg.PendingHighWater {
		schedAgg.PendingHighWater = s.PendingHighWater
	}
	schedAgg.Cascades += s.Cascades
	schedAgg.OverflowPushes += s.OverflowPushes
	schedAgg.Cancels += s.Cancels
	schedAgg.DeadPops += s.DeadPops
	schedAgg.Chases += s.Chases
	schedMu.Unlock()
}

// recordEventKinds folds one run's per-kind event counts into the aggregate.
func recordEventKinds(k *sim.EventKinds) {
	if !CollectSchedStats {
		return
	}
	schedMu.Lock()
	kindAgg.Add(k)
	schedMu.Unlock()
}

// recordMemStats folds one run's packet-path high-water marks into the
// aggregate: each is the largest any run of the exhibit reached.
func recordMemStats(m netsim.MemStats) {
	if !CollectSchedStats {
		return
	}
	schedMu.Lock()
	memAgg.PeakPackets = max(memAgg.PeakPackets, m.PeakPackets)
	memAgg.PeakParked = max(memAgg.PeakParked, m.PeakParked)
	memAgg.VOQChunks = max(memAgg.VOQChunks, m.VOQChunks)
	memAgg.PeakCalSlots = max(memAgg.PeakCalSlots, m.PeakCalSlots)
	memAgg.CalQueues = max(memAgg.CalQueues, m.CalQueues)
	schedMu.Unlock()
}

// TakeMemStats returns the packet-path high-water marks aggregated since the
// previous call and resets the aggregate.
func TakeMemStats() netsim.MemStats {
	schedMu.Lock()
	m := memAgg
	memAgg = netsim.MemStats{}
	schedMu.Unlock()
	return m
}

// TakeEventKinds returns the per-kind event counts aggregated since the
// previous call and resets the aggregate.
func TakeEventKinds() sim.EventKinds {
	schedMu.Lock()
	k := kindAgg
	kindAgg = sim.EventKinds{}
	schedMu.Unlock()
	return k
}

// FormatEventKinds renders the non-zero slots as "Name count", largest first
// (ties in registry order).
func FormatEventKinds(k sim.EventKinds) string {
	order := make([]int, 0, len(k))
	for i, c := range k {
		if c > 0 {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return k[order[a]] > k[order[b]] })
	parts := make([]string, len(order))
	for i, kind := range order {
		parts[i] = fmt.Sprintf("%s %d", checkpoint.KindName(uint8(kind)), k[kind])
	}
	return strings.Join(parts, ", ")
}

// recordShardStats folds one sharded run's window/mailbox counters into the
// aggregate, field for field: counts sum, the high-water mark takes the max.
func recordShardStats(s sim.ShardStats) {
	if !CollectSchedStats {
		return
	}
	schedMu.Lock()
	shardAgg.Windows += s.Windows
	shardAgg.CrossEvents += s.CrossEvents
	shardAgg.MergeBatches += s.MergeBatches
	shardAgg.MailboxHighWater = max(shardAgg.MailboxHighWater, s.MailboxHighWater)
	schedMu.Unlock()
}

// TakeSchedStats returns the scheduler internals aggregated since the
// previous call and resets the aggregate.
func TakeSchedStats() sim.SchedStats {
	schedMu.Lock()
	s := schedAgg
	schedAgg = sim.SchedStats{}
	schedMu.Unlock()
	return s
}

// recordShardNote remembers a serial-fallback reason so CLI callers can
// surface it (Result.ShardNote is per-run; exhibits aggregate many runs).
// Unlike the stats above it is not gated on CollectSchedStats: a sharded
// run silently degrading to serial is something the caller asked for and
// didn't get. Duplicate reasons collapse to one note.
func recordShardNote(note string) {
	schedMu.Lock()
	for _, n := range shardNotes {
		if n == note {
			schedMu.Unlock()
			return
		}
	}
	shardNotes = append(shardNotes, note)
	schedMu.Unlock()
}

// TakeShardNotes returns the distinct serial-fallback notes recorded since
// the previous call and resets the list.
func TakeShardNotes() []string {
	schedMu.Lock()
	notes := shardNotes
	shardNotes = nil
	schedMu.Unlock()
	return notes
}

// TakeShardStats returns the sharded-engine counters aggregated since the
// previous call and resets the aggregate.
func TakeShardStats() sim.ShardStats {
	schedMu.Lock()
	s := shardAgg
	shardAgg = sim.ShardStats{}
	schedMu.Unlock()
	return s
}
