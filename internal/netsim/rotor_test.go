package netsim

import (
	"testing"

	"ucmp/internal/sim"
	"ucmp/internal/topo"
)

func rotorNet(t testing.TB) *Network {
	t.Helper()
	n := coldRotorNet(t)
	n.Start()
	return n
}

// coldRotorNet is rotorNet before Start, as a resume builds a network to
// restore a checkpoint into: no event is scheduled yet.
func coldRotorNet(t testing.TB) *Network {
	t.Helper()
	f := topo.MustFabric(topo.Scaled(), "round-robin", 1)
	return New(sim.NewEngine(), f, stubRouter{f}, QueueSpec{MaxDataPackets: 300}, QueueSpec{MaxDataPackets: 300}, DefaultRotor())
}

// rotorPkt is a full-size data packet of a new rotor-class flow from host 0
// to dstToR's first host, registered with n: a VOQ holds a packet as a
// record, which names its flow by dense index.
func rotorPkt(n *Network, id int64, dstToR int) *Packet {
	fl := NewFlow(id, 0, dstToR*n.F.HostsPerToR, 1436, 0)
	n.RegisterFlow(fl)
	fl.RotorClass = true
	return &Packet{Flow: fl, Type: Data, PayloadLen: 1436, WireLen: 1500,
		SrcHost: fl.SrcHost, DstHost: fl.DstHost, SrcToR: 0, DstToR: dstToR}
}

// fitsAll is a budget no packet exceeds; noTime blocks every send (the
// slice has no serialization time left).
const (
	fitsAll = sim.Time(1) << 60
	noTime  = sim.Time(0)
)

// RotorLB drain priority: nonlocal (second hop) > local direct > indirect.
func TestRotorSelectPriority(t *testing.T) {
	n := rotorNet(t)
	tor := n.ToRs[0]
	r := tor.rotor
	peer := 5

	// Stage one packet of each class. A push consumes the packet and a pick
	// builds a new one, so picks are told apart by (flow, Seq).
	const indirect, local, second = 1, 2, 3
	r.pushLocal(rotorPkt(n, indirect, 9)) // local traffic for another dst -> indirect via peer
	r.pushLocal(rotorPkt(n, local, peer))
	p := rotorPkt(n, second, peer) // nonlocal: parked here, final hop to peer
	p.Seq, p.TorHops = 1436, 1
	r.pushNonlocal(p)

	if got := r.selectPacket(peer, fitsAll, 0); got.Flow.ID != second || got.Seq != 1436 || got.TorHops != 1 {
		t.Fatalf("first pick flow %d seq %d, want the nonlocal packet", got.Flow.ID, got.Seq)
	}
	if got := r.selectPacket(peer, fitsAll, 0); got.Flow.ID != local || got.Seq != 0 {
		t.Fatalf("second pick flow %d seq %d, want the local direct packet", got.Flow.ID, got.Seq)
	}
	if got := r.selectPacket(peer, fitsAll, 0); got.Flow.ID != indirect || got.DstToR != 9 {
		t.Fatalf("third pick flow %d, want the indirect packet", got.Flow.ID)
	}
	if r.selectPacket(peer, fitsAll, 0) != nil {
		t.Fatal("queues should be empty")
	}
}

// Indirection stops when the peer's published nonlocal backlog exceeds the
// cap. The sender sees the backlog through the slice-boundary board: the
// peer publishes at its boundary, and readers in the next slice observe it.
func TestRotorIndirectionBackpressure(t *testing.T) {
	n := rotorNet(t)
	n.Rotor.NonlocalCapBytes = 1000 // tiny
	tor := n.ToRs[0]
	peerToR := n.ToRs[5]
	// Fill the peer's nonlocal VOQ beyond the cap and publish the slice-0
	// snapshot; slice-1 readers see it.
	peerToR.rotor.pushNonlocal(rotorPkt(n, 10, 9))
	peerToR.publishRotorBacklog(0)
	tor.rotor.pushLocal(rotorPkt(n, 1, 9)) // candidate for indirection via 5
	if p := tor.rotor.selectPacket(5, fitsAll, 1); p != nil {
		t.Fatalf("indirected despite peer backlog: flow %d", p.Flow.ID)
	}
	// Before the publish is visible (slice 0 reads the zeroed board), the
	// cap cannot bind — the documented one-slice staleness of the exchange.
	if p := tor.rotor.selectPacket(5, fitsAll, 0); p == nil || p.Flow.ID != 1 {
		t.Fatal("unpublished backlog should not cap indirection")
	}
	// Direct traffic unaffected by the indirection cap.
	tor.rotor.pushLocal(rotorPkt(n, 2, 5))
	if p := tor.rotor.selectPacket(5, fitsAll, 1); p == nil || p.Flow.ID != 2 {
		t.Fatal("direct packet blocked by indirection cap")
	}
}

// Host credit: below the cap there is credit; filling the VOQ removes it;
// draining restores it and fires waiters.
func TestRotorCreditAndWaiters(t *testing.T) {
	n := rotorNet(t)
	n.Rotor.LocalCapBytes = 3000 // two packets
	tor := n.ToRs[0]
	dst := 7
	if !tor.RotorHasCredit(dst) {
		t.Fatal("no credit on empty VOQ")
	}
	tor.rotor.pushLocal(rotorPkt(n, 1, dst))
	tor.rotor.pushLocal(rotorPkt(n, 2, dst))
	if tor.RotorHasCredit(dst) {
		t.Fatal("credit despite full VOQ")
	}
	fired := false
	tor.RotorNotify(dst, nil, func() { fired = true })
	if p := tor.rotor.selectPacket(dst, fitsAll, 0); p == nil {
		t.Fatal("drain failed")
	}
	if !fired {
		t.Fatal("waiter not fired on credit")
	}
	if !tor.RotorHasCredit(dst) {
		t.Fatal("credit not restored")
	}
}

// A zero slice-time budget blocks oversized sends without dropping.
func TestRotorBudgetBlocks(t *testing.T) {
	n := rotorNet(t)
	tor := n.ToRs[0]
	tor.rotor.pushLocal(rotorPkt(n, 1, 5))
	if tor.rotor.selectPacket(5, noTime, 0) != nil {
		t.Fatal("packet sent despite zero slice-time budget")
	}
	if tor.rotor.selectPacket(5, fitsAll, 0) == nil {
		t.Fatal("packet gone")
	}
}

// viaRouter claims every flow for RotorLB and plans two hops through ToR mid.
type viaRouter struct {
	f   *topo.Fabric
	mid int
}

func (v viaRouter) Name() string         { return "via" }
func (v viaRouter) RotorFlow(*Flow) bool { return true }
func (v viaRouter) PlanRoute(p *Packet, tor int, now sim.Time, fromAbs int64, buf []PlannedHop) ([]PlannedHop, bool) {
	if tor != v.mid {
		first := v.f.Sched.NextDirect(tor, v.mid, fromAbs)
		buf = append(buf, PlannedHop{To: v.mid, AbsSlice: first})
		fromAbs = first + 1
	}
	return append(buf, PlannedHop{To: p.DstToR, AbsSlice: v.f.Sched.NextDirect(v.mid, p.DstToR, fromAbs)}), true
}

// With RotorLB off, a rotor-class flow is source-routed at its first ToR; the
// ToR one hop in must keep following that route, not reach for VOQs the
// fabric does not have.
func TestRotorDisabledMultiHopFollowsRoute(t *testing.T) {
	f := topo.MustFabric(topo.Scaled(), "round-robin", 1)
	eng := sim.NewEngine()
	n := New(eng, f, viaRouter{f, 5}, QueueSpec{MaxDataPackets: 300}, QueueSpec{MaxDataPackets: 300}, RotorConfig{})
	n.Start()
	fl := NewFlow(1, 0, 9*f.HostsPerToR, 1436, 0)
	n.RegisterFlow(fl)
	if !fl.RotorClass {
		t.Fatal("the router should have claimed the flow for RotorLB")
	}
	hops := -1
	fl.ReceiverEP = endpointFunc(func(p *Packet) { hops = p.TorHops })
	n.Hosts[0].Send(&Packet{Flow: fl, Type: Data, PayloadLen: 1436, WireLen: 1500})
	eng.Run(10 * sim.Millisecond)
	if hops != 2 {
		t.Fatalf("packet arrived after %d ToR hops (-1: never), want 2 through ToR 5", hops)
	}
}
