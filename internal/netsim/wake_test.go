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
// reservation: after restore, a packet that arrives while the NIC is still
// busy leaves on that wakeup, as in the uninterrupted run. Without it the
// restored NIC would never be woken.
func TestReservedWakeupSurvivesCheckpoint(t *testing.T) {
	eng, src, fl, arrivals, pumps := wakeNet(t, true)
	ser := src.serdelay(1500)
	eng.At(0, func() { src.Hosts[0].Send(wakeData(fl, 0)) })
	eng.Run(ser / 2)
	if src.ReservedWakeups() != 1 {
		t.Fatalf("%d reserved wakeups at the checkpoint, want 1", src.ReservedWakeups())
	}
	deng, dst, dfl, darrivals, dpumps := wakeNet(t, false)
	if err := snapshotInto(t, src, dst); err != nil {
		t.Fatal(err)
	}
	if dst.ReservedWakeups() != 1 {
		t.Fatalf("%d reserved wakeups restored, want 1", dst.ReservedWakeups())
	}
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
}
