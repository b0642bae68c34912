package netsim

import (
	"slices"
	"testing"

	"ucmp/internal/checkpoint"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
)

// wakeNet is stubNet with one registered flow from host 0, a tap recording
// when the flow's packets reach ToR 0, and a count of NIC pump events.
func wakeNet(t *testing.T, start bool) (eng *sim.Engine, n *Network, fl *Flow, arrivals *[]sim.Time, pumps func() uint64) {
	t.Helper()
	f := topo.MustFabric(topo.Scaled(), "round-robin", 1)
	eng = sim.NewEngine()
	n = New(eng, f, stubRouter{f}, QueueSpec{MaxDataPackets: 300, ECNThreshold: 65}, QueueSpec{MaxDataPackets: 300}, RotorConfig{})
	if start {
		n.Start()
	}
	fl = NewFlow(1, 0, 17, 1<<20, 0)
	n.RegisterFlow(fl)
	arrivals = new([]sim.Time)
	n.TapHostArrivals(func(_ int, p *Packet) {
		if p.Flow == fl {
			*arrivals = append(*arrivals, eng.Now())
		}
	})
	pumps = func() uint64 { return eng.EventKinds()[checkpoint.KindPumpHost] }
	return eng, n, fl, arrivals, pumps
}

func wakeData(fl *Flow, seq int64) *Packet {
	return &Packet{Flow: fl, Type: Data, Seq: seq, PayloadLen: 1436, WireLen: 1500}
}

// A port's reserved pump woken before its place runs there, where an event
// scheduled when the place was taken would have run. Never woken, it runs
// nothing, and once its place has passed the port reads as having no pump
// pending — seen from an event of its instant, from a deferred call, and
// after Run(until) stops at the instant.
func TestWakeupReservation(t *testing.T) {
	cases := []struct {
		name  string
		run   func(e *sim.Engine, w *wakeup, note func(string) func(), check func())
		trace []string // what ran, in order; "pump" is the wakeup's
		want  []bool   // pending() at each check
	}{
		{"woken", func(e *sim.Engine, w *wakeup, note func(string) func(), check func()) {
			e.At(100, note("before"))
			e.At(10, func() {
				w.reserve(100)
				e.At(100, note("after"))
			})
			e.At(50, func() { w.wake(); check() })
			e.RunAll()
			check()
		}, []string{"before", "pump", "after"}, []bool{true, false}},
		{"same-instant events", func(e *sim.Engine, w *wakeup, _ func(string) func(), check func()) {
			e.At(100, check) // scheduled before the reservation
			e.At(10, func() {
				w.reserve(100)
				e.At(100, check) // after it
			})
			e.RunAll()
		}, nil, []bool{true, false}},
		{"deferred call", func(e *sim.Engine, w *wakeup, _ func(string) func(), check func()) {
			e.At(10, func() { w.reserve(100) })
			e.At(100, func() { e.Defer(check) })
			e.RunAll()
		}, nil, []bool{false}},
		{"run until the instant", func(e *sim.Engine, w *wakeup, _ func(string) func(), check func()) {
			e.At(10, func() { w.reserve(100) })
			e.Run(99)
			check()
			e.Run(100)
			check()
			w.wake() // too late: it must schedule nothing
		}, nil, []bool{true, false}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine()
			var trace []string
			var got []bool
			note := func(s string) func() { return func() { trace = append(trace, s) } }
			w := &wakeup{eng: e, tag: sim.EventTag{Kind: checkpoint.KindWakeUplink}, fn: note("pump")}
			tc.run(e, w, note, func() { got = append(got, w.pending()) })
			if !slices.Equal(trace, tc.trace) || !slices.Equal(got, tc.want) || e.Pending() != 0 {
				t.Fatalf("ran %v, pending %v, %d events left; want %v, %v, 0", trace, got, e.Pending(), tc.trace, tc.want)
			}
		})
	}
}

// A NIC that sends its last queued packet reserves its next wakeup instead of
// scheduling it: an idle NIC costs no event. Work arriving before the wakeup
// schedules it in its place — a Send while the NIC serializes, and a SendRun,
// whose run joins the ring only after its first segment has left.
func TestNICWakesOnlyForWork(t *testing.T) {
	eng, n, fl, arrivals, pumps := wakeNet(t, true)
	h := n.Hosts[0]
	ser, prop := n.serdelay(1500), n.F.HostPropDelay

	eng.At(0, func() { h.Send(wakeData(fl, 0)) })
	eng.Run(10 * sim.Microsecond)
	if pumps() != 0 || !slices.Equal(*arrivals, []sim.Time{ser + prop}) {
		t.Fatalf("one packet: %d pump events, arrivals %v; want 0, [%v]", pumps(), *arrivals, ser+prop)
	}
	if n.ReservedWakeups() != 0 {
		t.Fatalf("%d reserved wakeups outstanding after their instants", n.ReservedWakeups())
	}

	// A second packet while the first serializes leaves on the wakeup the
	// first send reserved.
	t0 := 20 * sim.Microsecond
	eng.At(t0, func() { h.Send(wakeData(fl, 1436)) })
	eng.At(t0+ser/2, func() {
		if n.ReservedWakeups() != 1 {
			t.Errorf("mid-serialization: %d reserved wakeups, want 1", n.ReservedWakeups())
		}
		h.Send(wakeData(fl, 2*1436))
	})
	eng.Run(t0 + 10*sim.Microsecond)
	if want := []sim.Time{t0 + ser + prop, t0 + 2*ser + prop}; pumps() != 1 || !slices.Equal((*arrivals)[1:], want) {
		t.Fatalf("packet behind a busy NIC: %d pump events, arrivals %v; want 1, %v", pumps(), (*arrivals)[1:], want)
	}

	// A run of three segments leaves back to back.
	t1 := 40 * sim.Microsecond
	eng.At(t1, func() { h.SendRun(fl, 3*1436, 6*1436, 1436) })
	eng.Run(t1 + 10*sim.Microsecond)
	want := []sim.Time{t1 + ser + prop, t1 + 2*ser + prop, t1 + 3*ser + prop}
	if pumps() != 3 || !slices.Equal((*arrivals)[3:], want) {
		t.Fatalf("run: %d pump events in all, arrivals %v; want 3, %v", pumps(), (*arrivals)[3:], want)
	}
}

// A checkpoint taken between a send and the wakeup it reserved carries the
// reservation: after restore, work that arrives while the port is still busy
// leaves on that wakeup, as in the uninterrupted run. Without it the restored
// port would never be woken.
func TestReservedWakeupSurvivesCheckpoint(t *testing.T) {
	t.Run("host NIC", func(t *testing.T) {
		eng, src, fl, arrivals, pumps := wakeNet(t, true)
		ser := src.serdelay(1500)
		eng.At(0, func() { src.Hosts[0].Send(wakeData(fl, 0)) })
		eng.Run(ser / 2)
		deng, dst, dfl, darrivals, dpumps := restoreReserved(t, src)
		for _, run := range []struct {
			eng *sim.Engine
			n   *Network
			fl  *Flow
		}{{eng, src, fl}, {deng, dst, dfl}} {
			run.eng.At(ser/2+1, func() { run.n.Hosts[0].Send(wakeData(run.fl, 1436)) })
			run.eng.Run(10 * sim.Microsecond)
		}
		// The first packet was on the wire at the checkpoint: its arrival is a
		// restored event.
		if !slices.Equal(*darrivals, *arrivals) || dpumps() != pumps() || len(*arrivals) != 2 {
			t.Fatalf("restored: arrivals %v, %d pump events; uninterrupted: arrivals %v, %d pump events",
				*darrivals, dpumps(), *arrivals, pumps())
		}
	})
	// An uplink that sent the last packet it had reserves its wakeup; a
	// calendar enqueue for the same cyclic slice of a later cycle wakes it,
	// and the port sends that packet in the slice under way.
	t.Run("uplink", func(t *testing.T) {
		eng, src, fl, _, _ := wakeNet(t, true)
		f := src.F
		dstToR := src.HostToR(fl.DstHost)
		abs := f.Sched.NextDirect(0, dstToR, 1)
		t0 := f.SliceStart(abs) + f.ReconfDelay + 1 // the circuit is up
		ser := src.serdelayUp(1500)
		// park puts a packet of fl in ToR 0's calendar queue for the circuit
		// to its destination ToR in slice `slice`.
		park := func(n *Network, fl *Flow, seq, slice int64) {
			p := wakeData(fl, seq)
			p.SrcHost, p.DstHost, p.DstToR = fl.SrcHost, fl.DstHost, dstToR
			if !n.ToRs[0].enqueueUplink(p, PlannedHop{To: dstToR, AbsSlice: slice}) {
				t.Fatal("calendar queue refused the packet")
			}
		}
		eng.At(t0, func() { park(src, fl, 0, abs) })
		eng.Run(t0 + ser/2)
		deng, dst, dfl, _, _ := restoreReserved(t, src)
		var got [2][]sim.Time
		for i, run := range []struct {
			eng *sim.Engine
			n   *Network
			fl  *Flow
		}{{eng, src, fl}, {deng, dst, dfl}} {
			run.fl.ReceiverEP = endpointFunc(func(*Packet) { got[i] = append(got[i], run.eng.Now()) })
			run.eng.At(t0+ser/2+1, func() { park(run.n, run.fl, 1436, abs+int64(f.Sched.S)) })
			run.eng.Run(f.SliceEnd(abs))
		}
		wakes := [2]uint64{eng.EventKinds()[checkpoint.KindWakeUplink], deng.EventKinds()[checkpoint.KindWakeUplink]}
		if !slices.Equal(got[1], got[0]) || len(got[0]) != 2 || wakes[1] != wakes[0] {
			t.Fatalf("restored: deliveries %v, %d uplink pump events; uninterrupted: deliveries %v, %d uplink pump events",
				got[1], wakes[1], got[0], wakes[0])
		}
	})
}

// restoreReserved checkpoints src, which must hold exactly one reserved
// wakeup, into a fresh wakeNet and returns that.
func restoreReserved(t *testing.T, src *Network) (eng *sim.Engine, n *Network, fl *Flow, arrivals *[]sim.Time, pumps func() uint64) {
	t.Helper()
	if src.ReservedWakeups() != 1 {
		t.Fatalf("%d reserved wakeups at the checkpoint, want 1", src.ReservedWakeups())
	}
	eng, n, fl, arrivals, pumps = wakeNet(t, false)
	if err := snapshotInto(t, src, n); err != nil {
		t.Fatal(err)
	}
	if n.ReservedWakeups() != 1 {
		t.Fatalf("%d reserved wakeups restored, want 1", n.ReservedWakeups())
	}
	return eng, n, fl, arrivals, pumps
}
