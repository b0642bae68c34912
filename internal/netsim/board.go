package netsim

import (
	"fmt"

	"ucmp/internal/checkpoint"
	"ucmp/internal/sim"
)

// board is a slice-boundary exchange (DESIGN.md §6): the way a ToR reads
// peer state without reading it live. At the top of its own boundary event
// for absolute slice s, each ToR publishes a stripe of `stride` values into
// ring slot s&3; readers during slice s read the stripe published at the
// boundary of s−1. The value read is the state as of the previous boundary —
// stale by at most one slice, but a pure function of the simulation at a
// boundary instant, which the serial and sharded engines reproduce exactly
// (a ToR's boundary event mutates only its own state, so the publication
// does not depend on the order ToRs process a boundary in). During slice 0
// nothing has been published and every read is zero.
//
// Writers touch only their own ToR's stripe; a stripe is read one full slice
// after it is written, and the sharded engine's window never exceeds the
// lookahead, so with slices at least one window long — checked when the
// board is built, and mirrored by harness.Shardable — no write shares an
// engine window with a read of its slot. Four slots make the ring index a
// mask; three would suffice for the race argument.
//
// Two exchanges use it: RotorLB's nonlocal VOQ backlog (one int64 per ToR)
// and the §10 congestion-aware extension's calendar backlog (one int32 per
// (uplink, cyclic slice) of each ToR). A nil ring is a board that is off.
type board[T int32 | int64] struct {
	ring   []T
	tors   int
	stride int
}

// newBoard allocates a zeroed board of `stride` values per ToR, refusing a
// sharded network whose slices are shorter than its engine window.
func newBoard[T int32 | int64](n *Network, stride int) board[T] {
	if n.sharded != nil && n.F.SliceDuration < n.sharded.Window() {
		panic(fmt.Sprintf("netsim: slice duration %v below engine window %v; a slice-boundary board cannot shard",
			n.F.SliceDuration, n.sharded.Window()))
	}
	return board[T]{ring: make([]T, 4*n.F.NumToRs*stride), tors: n.F.NumToRs, stride: stride}
}

// stripe is ToR tor's values in the ring slot of absolute slice abs.
func (b *board[T]) stripe(abs int64, tor int) []T {
	i := ((abs&3)*int64(b.tors) + int64(tor)) * int64(b.stride)
	return b.ring[i : i+int64(b.stride) : i+int64(b.stride)]
}

// publish returns ToR tor's stripe for the boundary of slice abs, cleared.
func (b *board[T]) publish(abs int64, tor int) []T {
	s := b.stripe(abs, tor)
	clear(s)
	return s
}

// read returns ToR tor's stripe as seen during slice abs: the one published
// at the boundary of abs−1.
func (b *board[T]) read(abs int64, tor int) []T { return b.stripe(abs-1, tor) }

// encode writes the board to a checkpoint: a presence flag, then the ring's
// length and values when the board is on.
func (b *board[T]) encode(e *checkpoint.Encoder) {
	e.Bool(b.ring != nil)
	if b.ring == nil {
		return
	}
	e.Len(len(b.ring))
	switch r := any(b.ring).(type) {
	case []int64:
		for _, v := range r {
			e.I64(v)
		}
	case []int32:
		for _, v := range r {
			e.I32(v)
		}
	}
}

// decode restores what encode wrote into a board of the same shape; name
// labels its errors.
func (b *board[T]) decode(d *checkpoint.Decoder, name string) error {
	if has := d.Bool(); has != (b.ring != nil) && d.Err() == nil {
		return fmt.Errorf("checkpoint: %s board presence mismatch", name)
	}
	if b.ring != nil {
		if cnt := d.Len(); cnt != len(b.ring) && d.Err() == nil {
			return fmt.Errorf("checkpoint: %s board has %d slots, network has %d", name, cnt, len(b.ring))
		}
		switch r := any(b.ring).(type) {
		case []int64:
			for i := range r {
				r[i] = d.I64()
			}
		case []int32:
			for i := range r {
				r[i] = d.I32()
			}
		}
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("checkpoint: %s board: %w", name, err)
	}
	return nil
}

// encodeBoards writes the "boards" checkpoint section: rotor, then
// congestion.
func (n *Network) encodeBoards(e *checkpoint.Encoder) {
	n.rotorBoard.encode(e)
	n.congBoard.encode(e)
}

// decodeBoards restores the "boards" section onto a network built with the
// same boards.
func (n *Network) decodeBoards(d *checkpoint.Decoder) error {
	if err := n.rotorBoard.decode(d, "rotor"); err != nil {
		return err
	}
	return n.congBoard.decode(d, "congestion")
}

// publishRotorBacklog writes this ToR's nonlocal backlog into the rotor
// board for absolute slice abs (read by peers during slice abs+1).
func (t *ToR) publishRotorBacklog(abs int64) {
	t.net.rotorBoard.publish(abs, t.id)[0] = t.rotor.totalNonlocal
}

// EnableCongestionBoard turns on the calendar-backlog board behind the §10
// congestion-aware extension, which used to read calendar queues live at
// plan time — a mid-slice read whose value depends on which same-instant
// events have already run, an order the serial and sharded engines need not
// share. Must be called before Start; calling it twice is a no-op. The board
// costs 4·N·d·S int32 values and one d·S clear per ToR per slice boundary
// (plus a write per live calendar slot), so networks without
// congestion-aware routing never pay for it.
func (n *Network) EnableCongestionBoard() {
	if n.congBoard.ring == nil {
		n.congBoard = newBoard[int32](n, n.F.Uplinks*n.F.Sched.S)
	}
}

// publishCongestionBacklog snapshots this ToR's calendar-queue data
// backlogs into the board for absolute slice abs (read by plans made during
// slice abs+1). Runs at the top of onSliceStart, before the boundary's own
// expiry and pumps mutate the queues.
func (t *ToR) publishCongestionBacklog(abs int64) {
	stripe := t.net.congBoard.publish(abs, t.id) // a slice without a slot holds nothing
	S := t.net.F.Sched.S
	for sw, u := range t.up {
		for _, s := range u.cal {
			stripe[sw*S+s.c] = int32(s.q.DataLen())
		}
	}
}

// CongestionBacklog reports the data-packet backlog of the calendar queue
// a planned hop would join, as of the last published slice boundary: the
// congestion signal for the §10 extension (routing.UCMP.Backlog). Unknown
// circuits report a prohibitive backlog. The board must be enabled
// (EnableCongestionBoard).
func (n *Network) CongestionBacklog(tor int, now sim.Time, hop PlannedHop) int {
	c := n.F.CyclicSlice(hop.AbsSlice)
	sw := n.F.Sched.SwitchFor(c, tor, hop.To)
	if sw < 0 {
		return 1 << 30
	}
	return int(n.congBoard.read(n.F.AbsSlice(now), tor)[sw*n.F.Sched.S+c])
}
