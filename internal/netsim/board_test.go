package netsim

import (
	"testing"

	"ucmp/internal/checkpoint"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
)

// encodeBoardsByHand is the "boards" section as the rotor exchange wrote it
// with its own hand-written encoder, before the board type existed — kept
// verbatim, but for the ring parameter, as the oracle the board encoder must
// match byte for byte.
func encodeBoardsByHand(be *checkpoint.Encoder, rotorSnap []int64) {
	be.Bool(rotorSnap != nil)
	if rotorSnap != nil {
		be.Len(len(rotorSnap))
		for _, v := range rotorSnap {
			be.I64(v)
		}
	}
}

// checkBoard pins the ring semantics on a board: slice 0 reads zero, a
// publication is visible exactly one slice later, and ToRs and ring slots
// are isolated from each other.
func checkBoard(t *testing.T, b *board) {
	t.Helper()
	expect := func(abs int64, tor int, want int64, what string) {
		t.Helper()
		if got := b.read(abs, tor); got != want {
			t.Fatalf("%s: ToR %d, slice %d reads %d, want %d", what, tor, abs, got, want)
		}
	}
	const tor = 3
	// Slice 0 reads zero, whatever slice 0's own boundary publishes.
	b.publish(0, tor, 50)
	expect(0, tor, 0, "first slice")
	expect(1, tor, 50, "slice 0's publication, one slice later")

	// Boundary 8: visible during slice 9 and no other.
	b.publish(8, tor, 7)
	expect(8, tor, 0, "the publishing slice")
	expect(9, tor, 7, "one slice later")
	expect(10, tor, 0, "two slices later")

	// Every other ToR publishes boundary 9, and tor publishes the remaining
	// ring slots; none of it reaches tor's boundary-8 value.
	for other := 0; other < b.tors; other++ {
		if other != tor {
			b.publish(9, other, 1000+int64(other))
		}
	}
	b.publish(9, tor, 20)
	b.publish(10, tor, 30)
	b.publish(11, tor, 40)
	expect(9, tor, 7, "after neighbours and the rest of the ring published")
	expect(10, 0, 1000, "a neighbour's own publication")

	// Boundary 12 reuses boundary 8's ring slot.
	b.publish(12, tor, 0)
	expect(13, tor, 0, "a republished slot")
}

// TestBoard pins the slice-boundary board behind the rotor backlog: it is on
// with the rotor, follows the ring semantics, and refuses a sharded network
// whose slices are shorter than the engine window.
func TestBoard(t *testing.T) {
	f := topo.MustFabric(topo.Scaled(), "round-robin", 1)
	n := New(sim.NewEngine(), f, stubRouter{f}, QueueSpec{}, QueueSpec{}, DefaultRotor())
	if n.rotorBoard.ring == nil {
		t.Fatal("rotor board off with the rotor on")
	}
	checkBoard(t, &n.rotorBoard)

	short := topo.Scaled()
	short.SliceDuration = short.PropDelay / 2
	sf := topo.MustFabric(short, "round-robin", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("the rotor board accepted slices shorter than the engine window")
		}
	}()
	sh := sim.NewShardedEngine(sf.NumToRs, 2, ShardLookahead(sf))
	NewSharded(sh, sf, stubRouter{sf}, QueueSpec{}, QueueSpec{}, DefaultRotor())
}
