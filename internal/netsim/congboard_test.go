package netsim

import (
	"fmt"
	"math/rand"
	"testing"

	"ucmp/internal/sim"
	"ucmp/internal/topo"
)

func congNet(t testing.TB) *Network {
	t.Helper()
	f := topo.MustFabric(topo.Scaled(), "round-robin", 1)
	eng := sim.NewEngine()
	n := New(eng, f, stubRouter{f}, QueueSpec{MaxDataPackets: 300}, QueueSpec{MaxDataPackets: 300}, DefaultRotor())
	n.EnableCongestionBoard()
	n.Start()
	return n
}

// congCircuit finds a (cyclic slice, peer, switch) triple with a live
// circuit from tor, plus a peer with NO circuit in that slice, for the
// unknown-circuit probe.
func congCircuit(t *testing.T, n *Network, tor, c int) (peer, sw, dark int) {
	t.Helper()
	peer, dark = -1, -1
	for to := 0; to < n.F.NumToRs; to++ {
		if to == tor {
			continue
		}
		if s := n.F.Sched.SwitchFor(c, tor, to); s >= 0 {
			if peer < 0 {
				peer, sw = to, s
			}
		} else if dark < 0 {
			dark = to
		}
	}
	if peer < 0 || dark < 0 {
		t.Fatalf("slice %d from tor %d: need both a live and a dark peer", c, tor)
	}
	return peer, sw, dark
}

// TestCongestionBoardPublishAndRead pins the congestion board's semantics
// end to end (DESIGN.md §10): the value a reader in slice s observes is exactly the calendar
// backlog the ToR published at the boundary of s−1 (matching the live
// CalendarBacklog at that instant); during the first slice the board reads
// zero regardless of live state; mid-slice queue growth is invisible until
// the next boundary publishes it; and an unknown circuit is prohibitive,
// exactly like the live view.
func TestCongestionBoardPublishAndRead(t *testing.T) {
	n := congNet(t)
	f := n.F
	const tor, c = 3, 2
	peer, sw, dark := congCircuit(t, n, tor, c)
	hop := PlannedHop{To: peer, AbsSlice: int64(c) + 2*int64(f.Sched.S)}

	enqueue := func(k int, base int64) {
		for i := 0; i < k; i++ {
			p := rotorPkt(n, base+int64(i), peer)
			if !n.ToRs[tor].up[sw].slotFor(c).Enqueue(p) {
				t.Fatal("calendar enqueue rejected")
			}
		}
	}
	enqueue(5, 1)
	if live := n.CalendarBacklog(tor, hop); live != 5 {
		t.Fatalf("live backlog %d, want 5", live)
	}

	// First slice: no boundary has published yet, so the board reads zero
	// even though the live queue holds 5 — steering can never engage in
	// slice 0, identically in serial and sharded runs.
	if got := n.CongestionBacklog(tor, 0, hop); got != 0 {
		t.Fatalf("first-slice board read %d, want 0", got)
	}

	// Publish the slice-8 boundary snapshot; a plan made during slice 9
	// sees it, and it equals the live view at the publish instant.
	n.ToRs[tor].publishCongestionBacklog(8)
	now9 := sim.Time(9) * f.SliceDuration
	if got := n.CongestionBacklog(tor, now9, hop); got != 5 {
		t.Fatalf("slice-9 board read %d, want the published 5", got)
	}

	// Mid-slice growth is invisible to slice-9 readers (bounded staleness:
	// the board is the boundary value, the live view has moved on)...
	enqueue(2, 100)
	if live := n.CalendarBacklog(tor, hop); live != 7 {
		t.Fatalf("live backlog %d after growth, want 7", live)
	}
	if got := n.CongestionBacklog(tor, now9, hop); got != 5 {
		t.Fatalf("slice-9 board read %d after mid-slice growth, want the stale 5", got)
	}
	// ...until the next boundary publishes it for slice-10 readers.
	n.ToRs[tor].publishCongestionBacklog(9)
	now10 := sim.Time(10) * f.SliceDuration
	if got := n.CongestionBacklog(tor, now10, hop); got != 7 {
		t.Fatalf("slice-10 board read %d, want 7", got)
	}

	// A hop with no circuit in its slice is prohibitively congested, as in
	// the live view.
	darkHop := PlannedHop{To: dark, AbsSlice: hop.AbsSlice}
	if got := n.CongestionBacklog(tor, now9, darkHop); got != 1<<30 {
		t.Fatalf("unknown circuit reads %d, want 1<<30", got)
	}
}

// TestCongestionBoardSlotIsolation: publications land in their own ToR's
// slot of their own ring entry — a neighbor's publication, or the same
// ToR's publication for a different boundary, never bleeds into a read.
func TestCongestionBoardSlotIsolation(t *testing.T) {
	n := congNet(t)
	f := n.F
	const tor, c = 3, 2
	peer, sw, _ := congCircuit(t, n, tor, c)
	hop := PlannedHop{To: peer, AbsSlice: int64(c) + 2*int64(f.Sched.S)}

	for i := 0; i < 4; i++ {
		p := rotorPkt(n, int64(i+1), peer)
		if !n.ToRs[tor].up[sw].slotFor(c).Enqueue(p) {
			t.Fatal("calendar enqueue rejected")
		}
	}
	// Every OTHER ToR publishes boundary 8; tor itself does not.
	for id, tr := range n.ToRs {
		if id != tor {
			tr.publishCongestionBacklog(8)
		}
	}
	// tor publishes only boundary 9 (ring slot 1); its boundary-8 slot
	// (ring slot 0) stays zeroed.
	n.ToRs[tor].publishCongestionBacklog(9)
	now9 := sim.Time(9) * f.SliceDuration
	if got := n.CongestionBacklog(tor, now9, hop); got != 0 {
		t.Fatalf("slice-9 read %d; neighbors' or other-boundary publications bled into the slot", got)
	}
	now10 := sim.Time(10) * f.SliceDuration
	if got := n.CongestionBacklog(tor, now10, hop); got != 4 {
		t.Fatalf("slice-10 read %d, want tor's own boundary-9 snapshot of 4", got)
	}
}

// The board publishes live slots over a cleared stripe: what a ToR publishes
// equals, entry for entry, what the dense calendar would have copied out —
// with slots live, and again (into the same ring entry, four boundaries on)
// after they have drained, when nothing of the earlier publication may remain.
func TestCongestionBoardStripeMatchesDenseCalendar(t *testing.T) {
	n := congNet(t)
	S, d := n.F.Sched.S, n.F.Uplinks
	const tor = 5
	tr := n.ToRs[tor]
	dense := newDenseCalendar(d, S, n.UpQueue)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		sw, c := rng.Intn(d), rng.Intn(S)
		p := Packet{Type: Data, Seq: int64(i), WireLen: 1500}
		if rng.Intn(5) == 0 {
			p = Packet{Type: Ack, Seq: int64(i), WireLen: HeaderBytes} // occupies a slot, counts for nothing
		}
		q := p
		if !tr.up[sw].slotFor(c).Enqueue(&p) || !dense.enqueue(sw, c, &q) {
			t.Fatal("calendar enqueue rejected")
		}
	}
	sameStripe := func(abs int64, what string) {
		t.Helper()
		tr.publishCongestionBacklog(abs)
		stripe := n.congBoard.read(abs+1, tor)
		for sw := 0; sw < d; sw++ {
			for c := 0; c < S; c++ {
				if got, want := stripe[sw*S+c], int32(dense.cal[sw][c].DataLen()); got != want {
					t.Fatalf("%s: stripe entry (port %d, slice %d) is %d, dense calendar has %d", what, sw, c, got, want)
				}
			}
		}
	}
	sameStripe(8, "with live slots")
	// Drain half the slices, then everything.
	for _, upTo := range []int{S / 2, S} {
		for sw := 0; sw < d; sw++ {
			for c := 0; c < upTo; c++ {
				for tr.up[sw].expire(c) != nil {
				}
				for dense.expire(sw, c) != nil {
				}
			}
		}
		sameStripe(12, fmt.Sprintf("after draining slices below %d", upTo))
	}
	if live := n.doms[0].cals.live; live != 0 {
		t.Fatalf("%d slots live after the drain", live)
	}
	for i, v := range n.congBoard.read(13, tor) {
		if v != 0 {
			t.Fatalf("stripe entry %d reads %d with no slot live", i, v)
		}
	}
}
