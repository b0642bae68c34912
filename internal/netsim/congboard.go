package netsim

import (
	"fmt"

	"ucmp/internal/sim"
)

// The congestion board is the slice-boundary calendar-backlog exchange
// behind the §10 congestion-aware UCMP extension. The extension used to
// read calendar queues live at plan time (Network.CalendarBacklog): a
// mid-slice read whose value depends on exactly which same-instant events
// have already executed — an ordering that the serial and sharded engines
// are not obliged to reproduce for each other, which is why the harness
// kept congestion-aware configs off the sharded engine.
//
// The board replaces the live read with the same bounded-staleness pattern
// the RotorLB backlog exchange uses (DESIGN.md §10): at the top of its own
// slice-boundary event for slice s, each ToR publishes the data-packet
// count of every one of its calendar queues into the board slot for s;
// plans made during slice s read the slot published at the boundary of
// s−1. The value read is therefore always "the backlog as of the previous
// slice boundary" — stale by at most one slice, but a pure function of the
// simulation state at a boundary instant, which both engines reproduce
// exactly (a ToR's boundary event mutates only its own state, so the
// snapshot is independent of the order ToRs process a boundary in). Reads
// and writes of one slot are at least a full slice apart, and the sharded
// engine's window never exceeds the lookahead, so with SliceDuration >=
// lookahead (enforced by harness.Shardable and the backstop below) no
// write shares an engine window with a read of its slot.

// EnableCongestionBoard allocates the slice-boundary calendar-backlog
// board and turns on its per-ToR publication. Must be called before Start;
// calling it twice is a no-op. The board costs 4·N·d·S int32 slots and one
// d·S clear per ToR per slice boundary (plus a write per live calendar
// slot), so it is pay-for-play: networks without congestion-aware routing
// never touch it.
func (n *Network) EnableCongestionBoard() {
	if n.congSnap != nil {
		return
	}
	if n.sharded != nil && n.F.SliceDuration < n.sharded.Window() {
		// Mirror of the rotor-board backstop in NewSharded: a slot published
		// at one boundary must not share an engine window with its readers
		// during the next slice. The harness gate rejects such configs; this
		// catches direct construction.
		panic(fmt.Sprintf("netsim: slice duration %v below engine window %v; congestion backlog exchange cannot shard",
			n.F.SliceDuration, n.sharded.Window()))
	}
	n.congSnap = make([]int32, 4*n.F.NumToRs*n.F.Uplinks*n.F.Sched.S)
}

// CongestionEnabled reports whether the board is allocated.
func (n *Network) CongestionEnabled() bool { return n.congSnap != nil }

// congSlot returns the board slot (one int32 per (uplink, cyclic slice))
// ToR tor publishes at the boundary of absolute slice abs. Four ring slots
// make the index a mask; three would suffice for the race argument.
func (n *Network) congSlot(abs int64, tor int) []int32 {
	stride := n.F.Uplinks * n.F.Sched.S
	base := ((abs & 3) * int64(n.F.NumToRs)) + int64(tor)
	return n.congSnap[base*int64(stride) : (base+1)*int64(stride) : (base+1)*int64(stride)]
}

// publishCongestionBacklog snapshots this ToR's calendar-queue data
// backlogs into the board slot for absolute slice abs (read by plans made
// during slice abs+1). Runs at the top of onSliceStart, before the
// boundary's own expiry and pumps mutate the queues.
func (t *ToR) publishCongestionBacklog(abs int64) {
	stripe := t.net.congSlot(abs, t.id)
	clear(stripe) // a slice without a slot holds nothing
	S := t.net.F.Sched.S
	for sw, u := range t.up {
		for _, s := range u.cal {
			stripe[sw*S+s.c] = int32(s.q.DataLen())
		}
	}
}

// CongestionBacklog reports the data-packet backlog of the calendar queue
// a planned hop would join, as of the last published slice boundary: the
// congestion signal for the §10 extension (routing.UCMP.Backlog). During
// the first slice no snapshot exists yet and every backlog reads as zero
// (the board starts zeroed), identically in serial and sharded runs.
// Unknown circuits report a prohibitive backlog, exactly like the live
// CalendarBacklog. The board must be enabled (EnableCongestionBoard).
func (n *Network) CongestionBacklog(tor int, now sim.Time, hop PlannedHop) int {
	c := n.F.CyclicSlice(hop.AbsSlice)
	sw := n.F.Sched.SwitchFor(c, tor, hop.To)
	if sw < 0 {
		return 1 << 30
	}
	abs := n.F.AbsSlice(now)
	return int(n.congSlot(abs-1, tor)[sw*n.F.Sched.S+c])
}
