package netsim

import (
	"fmt"

	"ucmp/internal/checkpoint"
)

// board is a slice-boundary exchange (DESIGN.md §6): the way a ToR reads
// peer state without reading it live. At the top of its own boundary event
// for absolute slice s, each ToR publishes one value into ring slot s&3;
// readers during slice s read the value published at the boundary of s−1.
// The value read is the state as of the previous boundary — stale by at
// most one slice, but a pure function of the simulation at a boundary
// instant, which the serial and sharded engines reproduce exactly (a ToR's
// boundary event mutates only its own state, so the publication does not
// depend on the order ToRs process a boundary in). During slice 0 nothing
// has been published and every read is zero.
//
// Writers touch only their own ToR's value; a value is read one full slice
// after it is written, and the sharded engine's window never exceeds the
// lookahead, so with slices at least one window long — checked when the
// board is built, and mirrored by harness.Shardable — no write shares an
// engine window with a read of its slot. Four slots make the ring index a
// mask; three would suffice for the race argument.
//
// RotorLB's nonlocal VOQ backlog (one int64 per ToR) is its one exchange.
// A nil ring is a board that is off.
type board struct {
	ring []int64
	tors int
}

// newBoard allocates a zeroed board, refusing a sharded network whose
// slices are shorter than its engine window.
func newBoard(n *Network) board {
	if n.sharded != nil && n.F.SliceDuration < n.sharded.Window() {
		panic(fmt.Sprintf("netsim: slice duration %v below engine window %v; a slice-boundary board cannot shard",
			n.F.SliceDuration, n.sharded.Window()))
	}
	return board{ring: make([]int64, 4*n.F.NumToRs), tors: n.F.NumToRs}
}

// slot is ToR tor's value in the ring slot of absolute slice abs.
func (b *board) slot(abs int64, tor int) *int64 {
	return &b.ring[(abs&3)*int64(b.tors)+int64(tor)]
}

// publish sets ToR tor's value for the boundary of slice abs.
func (b *board) publish(abs int64, tor int, v int64) { *b.slot(abs, tor) = v }

// read returns ToR tor's value as seen during slice abs: the one published
// at the boundary of abs−1.
func (b *board) read(abs int64, tor int) int64 { return *b.slot(abs-1, tor) }

// encodeBoards writes the "boards" checkpoint section: the rotor board's
// presence flag, then its ring's length and values when it is on.
func (n *Network) encodeBoards(e *checkpoint.Encoder) {
	r := n.rotorBoard.ring
	e.Bool(r != nil)
	if r == nil {
		return
	}
	e.Len(len(r))
	for _, v := range r {
		e.I64(v)
	}
}

// decodeBoards restores the "boards" section onto a network built with the
// same board.
func (n *Network) decodeBoards(d *checkpoint.Decoder) error {
	r := n.rotorBoard.ring
	if has := d.Bool(); has != (r != nil) && d.Err() == nil {
		return fmt.Errorf("checkpoint: rotor board presence mismatch")
	}
	if r != nil {
		if cnt := d.Len(); cnt != len(r) && d.Err() == nil {
			return fmt.Errorf("checkpoint: rotor board has %d slots, network has %d", cnt, len(r))
		}
		for i := range r {
			r[i] = d.I64()
		}
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("checkpoint: rotor board: %w", err)
	}
	return nil
}

// publishRotorBacklog writes this ToR's nonlocal backlog into the rotor
// board for absolute slice abs (read by peers during slice abs+1).
func (t *ToR) publishRotorBacklog(abs int64) {
	t.net.rotorBoard.publish(abs, t.id, t.rotor.totalNonlocal)
}
