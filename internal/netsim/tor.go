package netsim

import (
	"ucmp/internal/checkpoint"
	"ucmp/internal/sim"
)

// ToR is a top-of-rack switch: HostsPerToR downlink ports, Uplinks
// circuit-facing ports with calendar queues, optional RotorLB VOQs, and the
// source-routing logic of §6.2 plus the rerouting of §6.3.
type ToR struct {
	net   *Network
	dom   *domain
	id    int
	down  []*downPort
	up    []*uplinkPort
	rotor *rotorState

	// recvHostFn/ingressFn are the receive methods pre-bound for sim.At1:
	// link transmissions schedule arrivals without a per-packet closure.
	recvHostFn func(any)

	// Peer-arrival ingress: circuit arrivals landing at one instant buffer
	// here and are processed together at the end of that instant (the
	// engine's Defer hook — a call, not an event), in canonical (linkSrc,
	// linkSeq) order. The drain runs after every event of the instant in
	// both engines — nothing in netsim schedules zero-delay events, so once
	// the first arrival fires, no new event can slot in at the same time —
	// which pins the one tie the serial and sharded engines would otherwise
	// break differently: same-instant arrivals from different source ToRs.
	// The buffer is empty between instants, so no checkpoint carries it.
	ingress        []*Packet
	ingressScratch []*Packet
	ingressFn      func(any)
	flushFn        func()

	// linkSeq numbers this ToR's circuit transmissions for the canonical
	// arrival order above.
	linkSeq uint64
}

func newToR(n *Network, id int, dom *domain) *ToR {
	t := &ToR{net: n, dom: dom, id: id}
	t.recvHostFn = func(a any) { t.receiveFromHost(a.(*Packet)) }
	t.ingressFn = func(a any) { t.ingressArrive(a.(*Packet)) }
	t.flushFn = t.flushIngress
	// The rotor staging threshold is deliberately shallow — an eighth of
	// the queue bound, at least 8 — so bulk rotor traffic never builds deep
	// downlink queues (§9); an unbounded queue needs no staging.
	room := 0
	if limit := n.DownQueue.MaxDataPackets; limit > 0 {
		if room = limit / 8; room < 8 {
			room = 8
		}
	}
	t.down = make([]*downPort, n.F.HostsPerToR)
	for i := range t.down {
		d := &downPort{
			net:  n,
			dom:  dom,
			host: id*n.F.HostsPerToR + i,
			room: room,
			queue: Queue{
				MaxDataPackets: n.DownQueue.MaxDataPackets,
				ECNThreshold:   n.DownQueue.ECNThreshold,
				Trim:           n.DownQueue.Trim,
			},
		}
		d.wake = wakeup{eng: dom.eng, tag: sim.EventTag{Kind: checkpoint.KindPumpDown, A: int32(d.host)}, fn: d.pump}
		t.down[i] = d
	}
	t.up = make([]*uplinkPort, n.F.Uplinks)
	for sw := range t.up {
		t.up[sw] = newUplinkPort(n, t, sw)
	}
	if n.Rotor.Enabled {
		t.rotor = newRotorState(t, n.F.Sched.N)
	}
	return t
}

// ID returns the ToR index.
func (t *ToR) ID() int { return t.id }

// onSliceStart publishes this ToR's rotor backlog snapshot for the new
// slice, expires the calendar queues of the slice that just ended — every
// packet still parked there missed its circuit and is recirculated with
// this ToR as its new source (§6.3) — then kicks the pumps for the new
// slice. expired is the cyclic index of the previous slice, -1 at slice 0.
//
// The publish happens first, before any boundary processing: at a boundary
// instant a ToR's events mutate only its own rotor state, so the snapshot
// equals the backlog at the boundary regardless of the order ToRs process
// the boundary in — which is what makes it identical in serial (one event
// iterating all ToRs) and sharded (one event per domain) runs.
func (t *ToR) onSliceStart(abs int64, expired int) {
	if t.rotor != nil {
		t.publishRotorBacklog(abs)
	}
	if expired >= 0 {
		fs := t.net.Faults
		now := t.dom.eng.Now()
		for _, u := range t.up {
			// Expiries off a dead element are fault hits: stamp the instant so
			// the successful replan records the time-to-reroute wait.
			faulted := fs != nil && (!fs.TorOK(now, t.id) || !fs.LinkOK(now, t.id, u.sw))
			for p := u.expire(expired); p != nil; p = u.expire(expired) {
				t.dom.ctr.ExpiredInCalendar++
				if faulted && p.FaultAt == 0 && p.Type == Data {
					p.FaultAt = now
				}
				t.recirculate(p, abs)
			}
		}
	}
	for _, u := range t.up {
		u.pump()
	}
}

// faultDrop reports whether this ToR is down at `now` and, if so, drops the
// packet against the conservation ledger. A dead ToR forwards nothing: host
// injections, circuit arrivals, and parked packets all terminate here.
func (t *ToR) faultDrop(p *Packet, now sim.Time) bool {
	fs := t.net.Faults
	if fs == nil || fs.TorOK(now, t.id) {
		return false
	}
	t.dom.ctr.FaultDrops++
	t.dom.dropPacket(p)
	return true
}

// receiveFromHost accepts a packet from a local host NIC.
func (t *ToR) receiveFromHost(p *Packet) {
	p.assertLive("ToR.receiveFromHost")
	if t.net.Faults != nil && t.faultDrop(p, t.dom.eng.Now()) {
		return
	}
	if p.Type == Data {
		t.dom.ctr.DataPackets++
	}
	if p.DstToR == t.id {
		t.deliverDown(p)
		return
	}
	if t.rotorCarries(p) {
		t.rotor.pushLocal(p)
		return
	}
	t.routeAndForward(p, t.net.F.AbsSlice(t.dom.eng.Now()))
}

// rotorCarries reports whether p travels hop by hop through this ToR's VOQs
// rather than along a source route: data of a rotor-class flow, when the
// fabric runs RotorLB. With RotorLB off such a flow is source-routed from its
// first ToR like any other, and every later ToR must keep following that
// route — so both receive paths ask here.
func (t *ToR) rotorCarries(p *Packet) bool {
	return t.rotor != nil && p.Type == Data && p.Flow != nil && p.Flow.RotorClass
}

// ingressArrive buffers one circuit arrival; the instant's first defers the
// drain to the instant's end.
func (t *ToR) ingressArrive(p *Packet) {
	if len(t.ingress) == 0 {
		t.dom.eng.Defer(t.flushFn)
	}
	t.ingress = append(t.ingress, p)
}

// flushIngress processes the instant's buffered arrivals in (linkSrc,
// linkSeq) order: FIFO per link, source-ToR index across links.
func (t *ToR) flushIngress() {
	buf := t.ingress
	// Swap buffers before processing: receiveFromPeer cannot buffer new
	// same-instant arrivals (every send lands strictly later), but the swap
	// keeps the drain safe against any future same-instant path.
	t.ingress = t.ingressScratch[:0]
	t.ingressScratch = buf
	// Insertion sort: the buffer rarely exceeds the uplink count.
	for i := 1; i < len(buf); i++ {
		for j := i; j > 0; j-- {
			a, b := buf[j-1], buf[j]
			if a.linkSrc < b.linkSrc || (a.linkSrc == b.linkSrc && a.linkSeq < b.linkSeq) {
				break
			}
			buf[j-1], buf[j] = b, a
		}
	}
	for i, p := range buf {
		buf[i] = nil
		t.receiveFromPeer(p)
	}
}

// receiveFromPeer accepts a packet arriving over a circuit.
func (t *ToR) receiveFromPeer(p *Packet) {
	p.assertLive("ToR.receiveFromPeer")
	if t.net.Faults != nil && t.faultDrop(p, t.dom.eng.Now()) {
		return
	}
	p.TorHops++
	if p.DstToR == t.id {
		t.deliverDown(p)
		return
	}
	if t.rotorCarries(p) {
		// Indirect RotorLB traffic parks in the nonlocal VOQ and leaves on
		// the next direct circuit to its destination.
		t.rotor.pushNonlocal(p)
		return
	}
	now := t.dom.eng.Now()
	abs := t.net.F.AbsSlice(now)
	hop, ok := p.CurrentHop()
	if !ok || hop.AbsSlice < abs {
		// Route exhausted prematurely or the planned slice has passed:
		// recirculate with this ToR as the new source (§6.3).
		t.dom.ctr.LateArrivals++
		t.recirculate(p, abs)
		return
	}
	if !t.enqueueUplink(p, hop) {
		t.dom.ctr.CalendarFull++
		t.recirculate(p, hop.AbsSlice+1)
	}
}

// deliverDown hands the packet to the destination host's downlink port.
func (t *ToR) deliverDown(p *Packet) {
	local := p.DstHost - t.id*t.net.F.HostsPerToR
	if local < 0 || local >= len(t.down) {
		t.dom.dropPacket(p)
		return
	}
	t.down[local].enqueue(p)
}

// routeAndForward plans a source route starting no earlier than fromAbs and
// enqueues the packet; on a full calendar queue it retries with later
// slices (recirculation) until the §6.3 limit.
func (t *ToR) routeAndForward(p *Packet, fromAbs int64) {
	now := t.dom.eng.Now()
	bumped := false
	for {
		// The recycled packet's Route slice is the router's scratch: once it
		// has grown to the fabric's hop-count high-water mark, planning
		// allocates nothing.
		route, ok := t.net.Router.PlanRoute(p, t.id, now, fromAbs, p.Route[:0])
		if !ok || len(route) == 0 {
			if t.net.Faults != nil && p.RecoveredVia == RecoveryNone && p.Type == Data {
				t.dom.ctr.RecoveryFailed++
			}
			t.dom.dropPacket(p)
			return
		}
		// Feasibility of same-slice chains: a plan whose leading hops all
		// ride the current slice needs enough remaining slice time to
		// store-and-forward through them. Planning past the boundary once
		// is free (it is a better plan, not a recirculation); missing the
		// boundary later costs a §6.3 recirculation and, after five, the
		// packet.
		if !bumped && fromAbs == t.net.F.AbsSlice(now) {
			chain := 0
			for _, h := range route {
				if h.AbsSlice != fromAbs {
					break
				}
				chain++
			}
			need := 2 * sim.Time(chain) * (t.net.serdelayUp(p.WireLen) + t.net.F.PropDelay)
			if t.net.F.SliceEnd(fromAbs)-now < need {
				bumped = true
				fromAbs++
				continue
			}
		}
		p.Route, p.RouteIdx = route, 0
		hop := route[0]
		if t.enqueueUplink(p, hop) {
			if p.Type == Data && t.net.Faults != nil {
				t.noteRecovery(p, hop)
			}
			return
		}
		// Target priority queue full: recirculate (§6.3).
		t.dom.ctr.CalendarFull++
		if !t.bumpReroute(p) {
			return
		}
		fromAbs = hop.AbsSlice + 1
	}
}

// recirculate re-sources a packet at this ToR (§6.3). A dead ToR cannot
// re-source anything: its parked packets drop at the slice boundary.
func (t *ToR) recirculate(p *Packet, fromAbs int64) {
	if t.net.Faults != nil && t.faultDrop(p, t.dom.eng.Now()) {
		return
	}
	if !t.bumpReroute(p) {
		return
	}
	t.routeAndForward(p, fromAbs)
}

// noteRecovery applies the §5.3 online-recovery accounting after a data
// packet's plan was enqueued: the recovery-class counters (stamped by the
// router on the plan) and, for packets that hit a dead element, the
// time-to-reroute histogram — the wait from the fault hit until the
// replacement route's first circuit opens.
func (t *ToR) noteRecovery(p *Packet, first PlannedHop) {
	ctr := t.dom.ctr
	switch p.RecoveredVia {
	case RecoverySameLength:
		ctr.RecoveredSameLength++
	case RecoveryShorter:
		ctr.RecoveredShorter++
	case RecoveryLonger:
		ctr.RecoveredLonger++
	case RecoveryBackup:
		ctr.RecoveredBackup++
	}
	if p.FaultAt > 0 {
		ctr.RerouteWait[rerouteWaitBucket(t.net.F.SliceStart(first.AbsSlice)-p.FaultAt)]++
		p.FaultAt = 0
	}
}

// bumpReroute applies the recirculation accounting and limit; it reports
// whether the packet may continue.
func (t *ToR) bumpReroute(p *Packet) bool {
	if !p.WasRerouted && p.Type == Data {
		t.dom.ctr.ReroutedPackets++
	}
	p.WasRerouted = true
	p.Rerouted++
	if p.Rerouted > MaxReroutes {
		t.dom.dropPacket(p)
		return false
	}
	return true
}

// enqueueUplink places the packet in the calendar queue of the port/slice
// matching its next hop. It reports false when the queue rejected it.
func (t *ToR) enqueueUplink(p *Packet, hop PlannedHop) bool {
	c := t.net.F.CyclicSlice(hop.AbsSlice)
	sw := t.net.F.Sched.SwitchFor(c, t.id, hop.To)
	if sw < 0 {
		return false // router planned a circuit the schedule doesn't have
	}
	u := t.up[sw]
	if !u.slotFor(c).Enqueue(p) {
		return false
	}
	switch abs := t.net.F.AbsSlice(t.dom.eng.Now()); {
	case abs == hop.AbsSlice:
		u.pump()
	case c == t.net.F.CyclicSlice(abs):
		// Planned for a later cycle of the slice under way: the port serves
		// its calendar queues by cyclic slice, so its next wakeup in this
		// slice sends it, and a reserved one has to happen.
		u.wake.wake()
	}
	return true
}

// RotorHasCredit reports whether a host may push another packet toward
// dstToR (host-side backpressure).
func (t *ToR) RotorHasCredit(dstToR int) bool {
	if t.rotor == nil {
		return true
	}
	var queued int64
	if t.rotor.localBytes != nil {
		queued = t.rotor.localBytes[dstToR]
	}
	return queued < t.net.Rotor.LocalCapBytes
}

// RotorNotify registers a one-shot callback fired when credit toward
// dstToR becomes available. The waiting flow identifies the callback in
// checkpoints (the closure itself cannot be serialized; a restore re-parks
// the flow's sender through this same call).
func (t *ToR) RotorNotify(dstToR int, f *Flow, fn func()) {
	if t.rotor == nil {
		fn()
		return
	}
	t.rotor.alloc()
	t.rotor.waiters[dstToR] = append(t.rotor.waiters[dstToR], rotorWaiter{f: f, fn: fn})
}

// currentAbs is a small helper for rotor code.
func (t *ToR) currentAbs() int64 { return t.net.F.AbsSlice(t.dom.eng.Now()) }

// pumpFor kicks the port currently connected to peer, if any.
func (t *ToR) pumpFor(peer int) {
	c := t.net.F.CyclicSlice(t.currentAbs())
	if sw := t.net.F.Sched.SwitchFor(c, t.id, peer); sw >= 0 {
		t.up[sw].pump()
	}
}
