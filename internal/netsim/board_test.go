package netsim

import (
	"testing"

	"ucmp/internal/checkpoint"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
)

// encodeBoardsByHand is the "boards" section as the rotor and congestion
// exchanges wrote it with one hand-written encoder each, before they shared
// the board type — kept verbatim, but for the ring parameters, as the oracle
// board.encode must match byte for byte.
func encodeBoardsByHand(be *checkpoint.Encoder, rotorSnap []int64, congSnap []int32) {
	be.Bool(rotorSnap != nil)
	if rotorSnap != nil {
		be.Len(len(rotorSnap))
		for _, v := range rotorSnap {
			be.I64(v)
		}
	}
	be.Bool(congSnap != nil)
	if congSnap != nil {
		be.Len(len(congSnap))
		for _, v := range congSnap {
			be.I32(v)
		}
	}
}

// checkBoard pins the ring semantics on one board: slice 0 reads zero, a
// publication is visible exactly one slice later, ToRs and ring slots are
// isolated from each other, and a republication clears the stripe.
func checkBoard[T int32 | int64](t *testing.T, name string, b *board[T]) {
	t.Helper()
	fill := func(abs int64, tor int, v T) {
		s := b.publish(abs, tor)
		for i := range s {
			s[i] = v + T(i)
		}
	}
	expect := func(abs int64, tor int, v T, what string) {
		t.Helper()
		s := b.read(abs, tor)
		if len(s) != b.stride {
			t.Fatalf("%s: stripe of %d values, want %d", name, len(s), b.stride)
		}
		for i, got := range s {
			want := T(0)
			if v != 0 {
				want = v + T(i)
			}
			if got != want {
				t.Fatalf("%s: %s: ToR %d, slice %d, value %d reads %d, want %d", name, what, tor, abs, i, got, want)
			}
		}
	}
	const tor = 3
	// Slice 0 reads zero, whatever slice 0's own boundary publishes.
	fill(0, tor, 50)
	expect(0, tor, 0, "first slice")
	expect(1, tor, 50, "slice 0's publication, one slice later")

	// Boundary 8: visible during slice 9 and no other.
	fill(8, tor, 7)
	expect(8, tor, 0, "the publishing slice")
	expect(9, tor, 7, "one slice later")
	expect(10, tor, 0, "two slices later")

	// Every other ToR publishes boundary 9, and tor publishes the remaining
	// ring slots; none of it reaches tor's boundary-8 stripe.
	for other := 0; other < b.tors; other++ {
		if other != tor {
			fill(9, other, 1000+T(other))
		}
	}
	fill(9, tor, 20)
	fill(10, tor, 30)
	fill(11, tor, 40)
	expect(9, tor, 7, "after neighbours and the rest of the ring published")
	expect(10, 0, 1000, "a neighbour's own publication")

	// Boundary 12 reuses boundary 8's ring slot: publishing it clears the
	// stripe even when nothing is written into it.
	b.publish(12, tor)
	expect(13, tor, 0, "a republished, empty stripe")
}

// TestBoard pins both users of the slice-boundary board: the rotor backlog
// (always on with the rotor) and the congestion backlog (off until
// EnableCongestionBoard, which is idempotent) follow the same ring
// semantics, and the board's one short-slice check refuses either on a
// sharded network whose slices are shorter than the engine window.
func TestBoard(t *testing.T) {
	f := topo.MustFabric(topo.Scaled(), "round-robin", 1)
	n := New(sim.NewEngine(), f, stubRouter{f}, QueueSpec{}, QueueSpec{}, DefaultRotor())
	if n.rotorBoard.ring == nil || n.congBoard.ring != nil {
		t.Fatalf("rotor board on %v, congestion board on %v; want on, off", n.rotorBoard.ring != nil, n.congBoard.ring != nil)
	}
	n.EnableCongestionBoard()
	ring := &n.congBoard.ring[0]
	n.EnableCongestionBoard()
	if &n.congBoard.ring[0] != ring {
		t.Fatal("second EnableCongestionBoard reallocated the board")
	}
	if n.rotorBoard.stride != 1 || n.congBoard.stride != f.Uplinks*f.Sched.S {
		t.Fatalf("strides %d and %d, want 1 and %d", n.rotorBoard.stride, n.congBoard.stride, f.Uplinks*f.Sched.S)
	}
	checkBoard(t, "rotor", &n.rotorBoard)
	checkBoard(t, "congestion", &n.congBoard)

	short := topo.Scaled()
	short.SliceDuration = short.PropDelay / 2
	sf := topo.MustFabric(short, "round-robin", 1)
	refused := func(what string, build func(sh *sim.ShardedEngine)) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s accepted slices shorter than the engine window", what)
			}
		}()
		build(sim.NewShardedEngine(sf.NumToRs, 2, ShardLookahead(sf)))
	}
	refused("the rotor board", func(sh *sim.ShardedEngine) {
		NewSharded(sh, sf, stubRouter{sf}, QueueSpec{}, QueueSpec{}, DefaultRotor())
	})
	refused("the congestion board", func(sh *sim.ShardedEngine) {
		NewSharded(sh, sf, stubRouter{sf}, QueueSpec{}, QueueSpec{}, RotorConfig{}).EnableCongestionBoard()
	})
}
