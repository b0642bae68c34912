package netsim

import (
	"runtime"
	"testing"
	"unsafe"

	"ucmp/internal/sim"
	"ucmp/internal/topo"
)

// stubRouter plans a fixed one-hop route toward the packet's DstToR at the
// earliest direct slice.
type stubRouter struct{ f *topo.Fabric }

func (s stubRouter) Name() string           { return "stub" }
func (s stubRouter) RotorFlow(f *Flow) bool { return false }
func (s stubRouter) PlanRoute(p *Packet, tor int, now sim.Time, fromAbs int64, buf []PlannedHop) ([]PlannedHop, bool) {
	e := s.f.Sched.NextDirect(tor, p.DstToR, fromAbs)
	return append(buf, PlannedHop{To: p.DstToR, AbsSlice: e}), true
}

func stubNet(t testing.TB) (*sim.Engine, *Network) {
	t.Helper()
	f := topo.MustFabric(topo.Scaled(), "round-robin", 1)
	eng := sim.NewEngine()
	n := New(eng, f, stubRouter{f}, QueueSpec{MaxDataPackets: 300, ECNThreshold: 65}, QueueSpec{MaxDataPackets: 300}, RotorConfig{})
	n.Start()
	return eng, n
}

// The host NIC must round-robin flows: with a bulk flow and a short flow
// enqueued together, short-flow packets interleave instead of waiting for
// the full bulk backlog.
func TestHostPortFairQueueing(t *testing.T) {
	eng, n := stubNet(t)
	// Both flows share the destination ToR so circuit timing is identical
	// and delivery order reflects NIC departure order.
	bulk := NewFlow(1, 0, 17, 1<<20, 0)
	short := NewFlow(2, 0, 16, 3000, 0)
	n.RegisterFlow(bulk)
	n.RegisterFlow(short)
	var order []int64
	sink := func(fl *Flow) Endpoint {
		return endpointFunc(func(p *Packet) {
			order = append(order, fl.ID)
			n.RecordDelivered(fl, int64(p.PayloadLen))
		})
	}
	bulk.ReceiverEP = sink(bulk)
	short.ReceiverEP = sink(short)

	host := n.Hosts[0]
	eng.At(0, func() {
		// 50 bulk packets, then 2 short packets: FIFO would deliver the
		// shorts last; fair queueing interleaves them near the front.
		for i := 0; i < 50; i++ {
			host.Send(&Packet{Flow: bulk, Type: Data, Seq: int64(i) * 1436, PayloadLen: 1436, WireLen: 1500})
		}
		for i := 0; i < 2; i++ {
			host.Send(&Packet{Flow: short, Type: Data, Seq: int64(i) * 1436, PayloadLen: 1436, WireLen: 1500})
		}
		// Each flow queues on itself; the first bulk packet is already on
		// the wire.
		if bulk.nic.len() != 49 || short.nic.len() != 2 || host.port.anon.len() != 0 {
			t.Errorf("source NIC queues: bulk %d short %d anon %d, want 49/2/0",
				bulk.nic.len(), short.nic.len(), host.port.anon.len())
		}
		// Data of a registered flow injected at a host that is not its source
		// must not touch the flow's own queue (it belongs to host 0's ring):
		// it rides the foreign NIC's anon queue.
		foreign := n.Hosts[1]
		for i := 0; i < 2; i++ {
			foreign.Send(&Packet{Flow: bulk, Type: Data, Seq: int64(50+i) * 1436, PayloadLen: 1436, WireLen: 1500,
				SrcHost: 1, DstHost: 17})
		}
		fp := foreign.port
		if fp.anon.len() != 1 || len(fp.ring) != 1 || fp.ring[0] != nil || bulk.nic.len() != 49 {
			t.Errorf("foreign-host data: anon %d ring %v bulk queue %d, want it parked in anon only",
				fp.anon.len(), fp.ring, bulk.nic.len())
		}
	})
	eng.Run(20 * sim.Millisecond)
	if len(order) < 54 {
		t.Fatalf("only %d packets delivered", len(order))
	}
	// Both short packets must appear within the first dozen NIC departures'
	// worth of arrivals (they may reorder in the fabric, so check they are
	// not at the very tail).
	lastShort := -1
	for i, id := range order {
		if id == short.ID {
			lastShort = i
		}
	}
	if lastShort < 0 {
		t.Fatal("short flow never delivered")
	}
	if lastShort > 20 {
		t.Fatalf("short flow packet delivered at position %d; NIC fair queueing not working", lastShort)
	}
}

type endpointFunc func(*Packet)

func (f endpointFunc) Deliver(p *Packet) { f(p) }

// A packet waiting several cycles for its circuit must not be dropped: the
// recirculation budget is per ToR and resets on departure (§6.3).
func TestPerToRRerouteBudget(t *testing.T) {
	eng, n := stubNet(t)
	fl := NewFlow(1, 0, 17, 1436, 0)
	n.RegisterFlow(fl)
	delivered := false
	fl.ReceiverEP = endpointFunc(func(p *Packet) { delivered = true })

	// Force many recirculations at the source ToR by pre-aging the packet,
	// then confirm a fresh strike budget after it departs: the packet with
	// Rerouted=MaxReroutes-1 must still cross two ToRs if rerouted once
	// more at each.
	p := &Packet{Flow: fl, Type: Data, PayloadLen: 1436, WireLen: 1500, Rerouted: MaxReroutes - 1}
	eng.At(0, func() { n.Hosts[0].Send(p) })
	eng.Run(10 * sim.Millisecond)
	if !delivered {
		t.Fatalf("packet dropped despite per-ToR budget (rerouted=%d)", p.Rerouted)
	}
	if p.Rerouted != 0 {
		t.Fatalf("budget not reset on departure: %d", p.Rerouted)
	}
}

// ECN marking must occur in calendar queues when a slice's backlog exceeds
// the threshold.
func TestCalendarQueueECN(t *testing.T) {
	eng, n := stubNet(t)
	// Pick a destination whose direct circuit is a few slices away, so the
	// calendar queue accumulates instead of draining live.
	dstToR := -1
	for d := 1; d < n.F.NumToRs; d++ {
		if n.F.Sched.WaitSlices(0, d, 0) >= 2 {
			dstToR = d
			break
		}
	}
	if dstToR < 0 {
		t.Fatal("no delayed pair found")
	}
	fl := NewFlow(1, 0, dstToR*n.F.HostsPerToR, 1<<20, 0)
	n.RegisterFlow(fl)
	marked := 0
	fl.ReceiverEP = endpointFunc(func(p *Packet) {
		if p.ECNMarked {
			marked++
		}
	})
	eng.At(0, func() {
		for i := 0; i < 120; i++ { // above the 65-packet threshold
			n.Hosts[0].Send(&Packet{Flow: fl, Type: Data, Seq: int64(i) * 1436, PayloadLen: 1436, WireLen: 1500, ECNCapable: true})
		}
	})
	eng.Run(20 * sim.Millisecond)
	if marked == 0 {
		t.Fatal("no ECN marks despite deep calendar backlog")
	}
}

// NIC state must grow with what is queued, not with hosts × registered
// flows: with 50,000 flows registered, one packet sent per host allocates a
// few KB of ring and queue storage. A per-host table indexed by flow (32 B a
// slot) costs 32 hosts × 50,000 × 32 B = 51 MB here.
func TestHostNICMemoryIndependentOfFlowCount(t *testing.T) {
	_, n := stubNet(t)
	hosts := len(n.Hosts)
	const flows = 50000
	for i := 0; i < flows; i++ {
		src := i % hosts
		n.RegisterFlow(NewFlow(int64(i+1), src, (src+n.F.HostsPerToR)%hosts, 1436, 0))
	}
	pkts := make([]*Packet, 2*hosts)
	for i := range pkts {
		fl := n.FlowAt(flows - 1 - i) // the highest dense indices: the worst case for a table
		pkts[i] = &Packet{Flow: fl, Type: Data, PayloadLen: 1436, WireLen: 1500}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, p := range pkts {
		// Two packets per host: one goes to the wire, one stays queued.
		n.Hosts[p.Flow.SrcHost].Send(p)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("sending %d packets with %d flows registered allocated %d bytes; NIC state is sized by flow count",
			len(pkts), flows, got)
	}
	if got := n.InFlightData(); got != int64(hosts) {
		t.Fatalf("InFlightData = %d, want one queued packet per host (%d)", got, hosts)
	}
}

// A drained fifo gives back a backing array that one burst grew large, and
// keeps a small one for reuse.
func TestFifoReleasesLargeBackingArray(t *testing.T) {
	var f fifo
	for _, burst := range []int{fifoKeepCap / 2, 8 * fifoKeepCap} {
		for i := 0; i < burst; i++ {
			f.push(&Packet{Seq: int64(i)})
		}
		for i := 0; i < burst; i++ {
			if p := f.pop(); p == nil || p.Seq != int64(i) {
				t.Fatalf("burst %d: pop %d returned %v", burst, i, p)
			}
		}
		if f.len() != 0 || f.pop() != nil {
			t.Fatalf("burst %d: fifo not empty after draining", burst)
		}
		if kept := cap(f.items) > 0; kept != (burst <= fifoKeepCap) {
			t.Fatalf("burst %d: backing array kept=%v (cap %d)", burst, kept, cap(f.items))
		}
	}
}

// Packet must stay in the 160-byte allocation class: over a million are live
// at the peak of a paper-scale rotor run, and one stray byte-sized field
// between two words moves every one of them to 176 or 192 bytes.
func TestPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got > 160 {
		t.Fatalf("Packet is %d bytes, want <= 160: keep the one-byte fields together", got)
	}
}
