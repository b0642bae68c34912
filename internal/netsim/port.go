package netsim

import (
	"ucmp/internal/checkpoint"
	"ucmp/internal/sim"
)

// byteMeter tracks cumulative bytes sent with sampling support.
type byteMeter struct {
	total int64
	last  int64
}

func (m *byteMeter) add(n int64) { m.total += n }
func (m *byteMeter) take() int64 {
	d := m.total - m.last
	m.last = m.total
	return d
}

// wakeup is a port's next pump event, queued or only reserved (DESIGN.md
// §6). A send that leaves the port work schedules the pump for when the port
// frees up; one that leaves it nothing to send only reserves the pump's place
// in the event order, and the work that arrives first schedules it there.
// Never woken, a reservation costs nothing: once its place has passed, the
// port reads as having pumped. Every port kind wakes through one, so a
// checkpoint records and restores their pumps the same way.
type wakeup struct {
	eng  *sim.Engine
	tag  sim.EventTag // checkpoint identity of the pump event
	idle bool         // next is only reserved
	// fn is the port's pump bound once, so re-arming the port schedules
	// without allocating a method-value closure per packet.
	fn   func()
	next sim.Reservation // place of the latest pump scheduled or reserved
}

// at schedules the pump at t.
func (w *wakeup) at(t sim.Time) {
	w.next, w.idle = w.eng.Reserve(t), false
	w.eng.AtReserved(w.next, w.tag, w.fn)
}

// reserve takes the pump's place at t without scheduling it: the pump would
// find nothing to send there unless work arrives first.
func (w *wakeup) reserve(t sim.Time) { w.next, w.idle = w.eng.Reserve(t), true }

// wake schedules a reserved pump in its place, unless that has passed: work
// has arrived.
func (w *wakeup) wake() {
	if w.idle {
		w.idle = false
		w.eng.AtReserved(w.next, w.tag, w.fn)
	}
}

// pending reports whether the latest pump scheduled or reserved has yet to
// reach its place.
func (w *wakeup) pending() bool { return !w.eng.Passed(w.next) }

// restore re-takes a checkpointed pump's place, called in recorded event
// order: reserved again, or scheduled.
func (w *wakeup) restore(at sim.Time, reserved bool) {
	w.reserve(at)
	if !reserved {
		w.wake()
	}
}

// reserved returns the descriptor of a reserved pump whose place has not
// passed, for the snapshot's reserved list.
func (w *wakeup) reserved() (sim.ReservedDesc, bool) {
	if !w.idle || !w.pending() {
		return sim.ReservedDesc{}, false
	}
	return w.next.Desc(w.tag), true
}

// downPort is a ToR egress port toward one host: a plain queue and a link.
// A downlink never leaves its ToR's domain (the host is in it), so the pump
// schedules on the domain engine directly.
//
// Rotor-class data additionally has an unbounded staging fifo in front of
// the queue: RotorLB is lossless by construction (no retransmission), so
// arrivals above the shallow admission threshold park in the stage and are
// admitted as the queue drains. Keeping the bounded queue shallow for rotor
// bulk preserves the paper's §9 point — rotor traffic must not
// head-of-line-block latency-sensitive source-routed traffic on a shared
// downlink — while moving the room check from the sender (a cross-ToR read
// the sharded lookahead contract cannot cover) to the receiver.
type downPort struct {
	net       *Network
	dom       *domain
	host      int // global host id
	queue     Queue
	stage     fifo // staged rotor-class data awaiting queue admission
	room      int  // admission threshold; 0 disables staging
	busyUntil sim.Time
	meter     byteMeter
	wake      wakeup // enqueue wakes it
}

func (d *downPort) enqueue(p *Packet) {
	d.wake.wake()
	if d.room > 0 && p.Type == Data && p.Flow != nil && p.Flow.RotorClass {
		// FIFO within the rotor class: once anything is staged, everything
		// stages behind it.
		if d.stage.len() > 0 || d.queue.DataLen() >= d.room {
			d.stage.push(p)
			d.pump()
			return
		}
	}
	if !d.queue.Enqueue(p) {
		d.dom.dropPacket(p)
		return
	}
	d.pump()
}

func (d *downPort) pump() {
	now := d.dom.eng.Now()
	if now < d.busyUntil {
		return
	}
	for d.stage.len() > 0 && d.queue.DataLen() < d.room {
		d.queue.Enqueue(d.stage.pop())
	}
	p := d.queue.Dequeue()
	if p == nil {
		return
	}
	ser := d.net.serdelay(p.WireLen)
	d.busyUntil = now + ser
	d.meter.add(int64(p.WireLen))
	d.dom.ctr.TorToHostBytes += int64(p.WireLen)
	host := d.net.Hosts[d.host]
	d.dom.eng.At1Tag(now+ser+d.net.F.HostPropDelay,
		sim.EventTag{Kind: checkpoint.KindDeliverHost, A: int32(d.host)}, host.recvFn, p)
	if d.queue.Len() == 0 && d.stage.len() == 0 {
		d.wake.reserve(d.busyUntil)
	} else {
		d.wake.at(d.busyUntil)
	}
}

func (d *downPort) takeBytes() int64 { return d.meter.take() }

// hostPort is the host NIC toward its ToR. Transports self-limit, so the
// NIC is unbounded, but it fair-queues per flow (round-robin over active
// flows, control traffic first) so a bulk sender on the host cannot
// head-of-line-block a latency-sensitive flow sharing the NIC. A flow's data
// leaves only its source host, so each registered flow carries its own NIC
// queue — built packets (Flow.nic), then at most one run of segments still
// to be built (Flow.run) — and the port holds just the round-robin ring of
// flows with something queued: NIC state grows with the flows that are
// queued, not with hosts × flows nor with the bytes they have yet to send.
type hostPort struct {
	net       *Network
	dom       *domain
	host      int // global host id
	tor       int
	busyUntil sim.Time
	meter     byteMeter

	high fifo
	anon fifo    // data of unregistered flows, or of flows sourced elsewhere
	ring []*Flow // flows with a non-empty queue, round-robin; nil is anon
	rr   int

	wake wakeup // enqueue and SendRun wake it
}

// queueFor resolves a ring entry to its fifo.
func (h *hostPort) queueFor(f *Flow) *fifo {
	if f == nil {
		return &h.anon
	}
	return &f.nic
}

// queued reports whether ring entry f has anything left to send.
func (h *hostPort) queued(f *Flow) bool {
	return h.queueFor(f).len() > 0 || (f != nil && f.run.pending())
}

func (h *hostPort) enqueue(p *Packet) {
	h.wake.wake()
	if p.IsControl() {
		h.high.push(p)
		h.pump()
		return
	}
	owner := p.Flow
	if owner != nil && (owner.dense < 0 || owner.SrcHost != h.host) {
		owner = nil
	}
	q := h.queueFor(owner)
	// A packet behind a pending run waits for every segment of the run: build
	// them now, so the queue stays first-in first-out.
	for owner != nil && owner.run.pending() {
		q.push(h.segment(owner, &owner.run))
	}
	if q.len() == 0 {
		h.ring = append(h.ring, owner)
	}
	q.push(p)
	h.pump()
}

// segment builds the next segment of run r of flow f from the domain pool,
// as Host.Send would have sent it at r.sentAt, and advances the run.
func (h *hostPort) segment(f *Flow, r *nicRun) *Packet {
	n := int64(r.mss)
	if r.next+n > r.end {
		n = r.end - r.next
	}
	p := h.dom.newPacket()
	p.Flow = f
	p.Type = Data
	p.Seq = r.next
	p.PayloadLen = int(n)
	p.WireLen = int(n) + HeaderBytes
	p.SrcHost, p.DstHost = f.SrcHost, f.DstHost
	// The stamper ages the flow by BytesSent, which the sender has already
	// advanced past the whole run: show it the value this segment had.
	sent := f.BytesSent
	f.BytesSent = r.next
	h.net.seal(p, r.sentAt)
	f.BytesSent = sent
	r.next += n
	return p
}

// next pops the next packet under fair queueing.
func (h *hostPort) next() *Packet {
	if p := h.high.pop(); p != nil {
		return p
	}
	for len(h.ring) > 0 {
		if h.rr >= len(h.ring) {
			h.rr = 0
		}
		f := h.ring[h.rr]
		p := h.queueFor(f).pop()
		if p == nil && f != nil && f.run.pending() {
			p = h.segment(f, &f.run)
		}
		if p != nil && h.queued(f) {
			h.rr++
			return p
		}
		// Drained, or an empty slot: retire from the ring.
		h.ring = append(h.ring[:h.rr], h.ring[h.rr+1:]...)
		if p != nil {
			return p
		}
	}
	return nil
}

func (h *hostPort) pump() {
	now := h.dom.eng.Now()
	if now < h.busyUntil {
		return
	}
	p := h.next()
	if p == nil {
		return
	}
	ser := h.net.serdelay(p.WireLen)
	h.busyUntil = now + ser
	h.meter.add(int64(p.WireLen))
	h.dom.ctr.HostToTorBytes += int64(p.WireLen)
	tor := h.net.ToRs[h.tor]
	h.dom.eng.At1Tag(now+ser+h.net.F.HostPropDelay,
		sim.EventTag{Kind: checkpoint.KindRecvHost, A: int32(h.tor)}, tor.recvHostFn, p)
	if h.high.len() == 0 && len(h.ring) == 0 {
		h.wake.reserve(h.busyUntil)
	} else {
		h.wake.at(h.busyUntil)
	}
}

func (h *hostPort) takeBytes() int64 { return h.meter.take() }

// calSlot is one live calendar queue of an uplink port: the cyclic slice it
// serves and the queue holding that slice's packets.
type calSlot struct {
	c int
	q *Queue
}

// calPool is a domain's free list of calendar queues, owned as its packetPool
// and voqPool are: a port belongs to a ToR and a ToR to one domain, so a queue
// never crosses a barrier and the list needs no lock. A queue comes back
// drained — pop cleared every pointer it handed out — and keeps its fifo
// backing (up to fifoKeepCap) for the next slice that takes it.
type calPool struct {
	free []*Queue
	made uint64 // queues allocated because the free list was empty

	// live counts the domain's calendar slots; peak is its high-water mark.
	live, peak uint64
}

func (pool *calPool) get(spec QueueSpec) *Queue {
	if pool.live++; pool.live > pool.peak {
		pool.peak = pool.live
	}
	if n := len(pool.free); n > 0 {
		q := pool.free[n-1]
		pool.free = pool.free[:n-1]
		return q
	}
	pool.made++
	return &Queue{MaxDataPackets: spec.MaxDataPackets, ECNThreshold: spec.ECNThreshold, Trim: spec.Trim}
}

func (pool *calPool) put(q *Queue) {
	pool.live--
	pool.free = append(pool.free, q)
}

// uplinkPort is a circuit-facing ToR egress port (§6.2): one calendar queue
// per cyclic time slice, unpaused only while its slice's circuit is up. The
// port also drains the ToR's RotorLB VOQs opportunistically when the
// calendar queue for the active slice is empty.
type uplinkPort struct {
	net *Network
	tor *ToR
	sw  int // circuit switch index == uplink index

	// cal holds the calendar queues that exist: a slice has one from its
	// first enqueue until the pump or the slice-boundary expiry takes its
	// last packet, so a slot is never empty and an absent slice reads as an
	// empty queue. Routes are planned a few slices ahead, so the list is a
	// handful long and looked up by scan; its order carries no meaning.
	cal       []calSlot
	busyUntil sim.Time
	meter     byteMeter

	// wake coalesces the port's self-wakeups (circuit-open waits and
	// post-send re-arms) into one pending pump (wakeAt). A send that leaves
	// the port nothing it could send before the slice ends only reserves it;
	// pump wakes it.
	wake wakeup

	// Cached per-slice state, valid while now < sliceEnd. Keyed on the
	// time window — not on the slice-boundary callback, which can run
	// after same-instant smaller-seq events — so every pump sees exactly
	// what recomputing from `now` would yield, at the cost of one compare.
	sliceEnd  sim.Time // exclusive; zero forces a refresh on first pump
	sliceOpen sim.Time
	sliceAbs  int64
	sliceC    int
	slicePeer int
}

func newUplinkPort(n *Network, tor *ToR, sw int) *uplinkPort {
	u := &uplinkPort{net: n, tor: tor, sw: sw}
	u.wake = wakeup{eng: tor.dom.eng, tag: sim.EventTag{Kind: checkpoint.KindWakeUplink, A: int32(tor.id), B: int32(sw)}, fn: u.pump}
	return u
}

// find returns the index in cal of cyclic slice c's slot, or -1 when the
// slice holds nothing.
func (u *uplinkPort) find(c int) int {
	for i := range u.cal {
		if u.cal[i].c == c {
			return i
		}
	}
	return -1
}

// slot returns the calendar queue of cyclic slice c, or nil when the slice
// holds nothing.
func (u *uplinkPort) slot(c int) *Queue {
	if i := u.find(c); i >= 0 {
		return u.cal[i].q
	}
	return nil
}

// slotFor returns the calendar queue of cyclic slice c, taking one from the
// domain's free list when the slice has none. The caller must put a packet in
// it: an empty queue accepts anything (the bound is on a non-empty data
// band), which is what keeps every live slot non-empty.
func (u *uplinkPort) slotFor(c int) *Queue {
	if q := u.slot(c); q != nil {
		return q
	}
	q := u.tor.dom.cals.get(u.net.UpQueue)
	u.cal = append(u.cal, calSlot{c: c, q: q})
	return q
}

// dequeue removes the head packet of slot i and, when that drains it, returns
// the queue to the domain's free list.
func (u *uplinkPort) dequeue(i int) *Packet {
	q := u.cal[i].q
	p := q.Dequeue()
	if q.Len() == 0 {
		last := len(u.cal) - 1
		u.cal[i] = u.cal[last]
		u.cal[last] = calSlot{}
		u.cal = u.cal[:last]
		u.tor.dom.cals.put(q)
	}
	return p
}

// takeScheduled removes and returns the head packet of cyclic slice c's
// calendar queue if the port can serialize it within left, the time the
// slice's circuit stays up. late reports a head packet that cannot make it:
// it stays where it is and expires at the boundary.
func (u *uplinkPort) takeScheduled(c int, left sim.Time) (p *Packet, late bool) {
	i := u.find(c)
	if i < 0 {
		return nil, false
	}
	if u.net.serdelayUp(u.cal[i].q.Peek().WireLen) > left {
		return nil, true
	}
	return u.dequeue(i), false
}

// expire removes and returns the next packet still parked for cyclic slice
// c, whose circuit has closed; nil once the slice holds nothing.
func (u *uplinkPort) expire(c int) *Packet {
	if i := u.find(c); i >= 0 {
		return u.dequeue(i)
	}
	return nil
}

// refreshSlice recomputes the cached slice state for the slice containing
// now, including the circuit-open instant (slice start, pushed back by the
// reconfiguration delay when this switch reconfigures into the slice).
// Ports are pumped at every slice boundary, so the refresh almost always
// advances by exactly one slice and the divisions in AbsSlice/CyclicSlice
// reduce to an increment; the cold path covers the first pump and jumps
// across multiple slices.
func (u *uplinkPort) refreshSlice(now sim.Time) {
	f := u.net.F
	var start sim.Time
	if u.sliceEnd != 0 && now < u.sliceEnd+f.SliceDuration {
		u.sliceAbs++
		start = u.sliceEnd
		if u.sliceC++; u.sliceC == f.Sched.S {
			u.sliceC = 0
		}
	} else {
		u.sliceAbs = f.AbsSlice(now)
		start = f.SliceStart(u.sliceAbs)
		u.sliceC = f.CyclicSlice(u.sliceAbs)
	}
	u.sliceEnd = start + f.SliceDuration
	u.sliceOpen = start
	if f.Sched.ReconfiguresAt(u.sliceC, u.sw) {
		u.sliceOpen += f.ReconfDelay
	}
	u.slicePeer = f.Sched.PeerOf(u.sliceC, u.tor.id, u.sw)
}

// wakeAt schedules the port's pump at t unless one is already pending; lazy
// only reserves it, for a pump that finds nothing to send unless pump is
// called first. Every pump path that still has work re-declares its wakeup,
// so keeping the pending one never loses one.
//
// A pending pump is never later than t, so it is kept without a compare.
// Asked for busyUntil, the port is busy or has just sent: a pump armed since
// the send is at busyUntil, and one armed before it was due by the send's
// instant (the port had freed and its circuit was up). Asked for the open
// instant of the slice under way, the port is free before it: a pump armed
// for a send is due by now, and one armed for the circuit is at that instant.
func (u *uplinkPort) wakeAt(t sim.Time, lazy bool) {
	switch {
	case u.wake.pending(): // kept: it is never later than t
	case lazy:
		u.wake.reserve(t)
	default:
		u.wake.at(t)
	}
}

// pump transmits at most one packet and re-arms itself. It is idempotent:
// extra pump calls are harmless. Every call but the pump event's own is work
// arriving (a calendar enqueue, a rotor push, a slice boundary), so it first
// wakes a reserved pump.
func (u *uplinkPort) pump() {
	u.wake.wake()
	now := u.tor.dom.eng.Now()
	if now < u.busyUntil {
		// An early wakeup (e.g. a rotor retry) landed mid-serialization:
		// re-arm for when the port frees up.
		u.wakeAt(u.busyUntil, false)
		return
	}
	if fs := u.net.Faults; fs != nil && (!fs.TorOK(now, u.tor.id) || !fs.LinkOK(now, u.tor.id, u.sw)) {
		// Dead link (or dead ToR): the port transmits nothing. No wakeup is
		// armed — after a repair the next slice boundary pumps every port, so
		// service resumes there, identically in serial and sharded runs.
		// Parked packets meanwhile expire at the boundary and recirculate.
		return
	}
	if now >= u.sliceEnd {
		u.refreshSlice(now)
	}
	c := u.sliceC
	if now < u.sliceOpen {
		u.wakeAt(u.sliceOpen, false)
		return
	}
	peer := u.slicePeer
	end := u.sliceEnd

	// Scheduled (calendar) traffic first, then RotorLB traffic.
	p, late := u.takeScheduled(c, end-now)
	if late {
		return
	}
	if p != nil {
		p.RouteIdx++
		p.Rerouted = 0 // the per-ToR recirculation budget resets on departure
	} else if u.tor.rotor != nil {
		p = u.tor.rotor.selectPacket(peer, end-now, u.sliceAbs)
	}
	if p == nil {
		return
	}
	ser := u.net.serdelayUp(p.WireLen)
	u.busyUntil = now + ser
	u.meter.add(int64(p.WireLen))
	u.tor.dom.ctr.TorToTorBytes += int64(p.WireLen)
	dst := u.net.ToRs[peer]
	at := now + ser + u.net.F.PropDelay
	u.tor.linkSeq++
	p.linkSrc, p.linkSeq = int32(u.tor.id), u.tor.linkSeq
	tag := sim.EventTag{Kind: checkpoint.KindIngress, A: int32(peer)}
	if sh := u.net.sharded; sh != nil && dst.dom != u.tor.dom {
		// Cross-domain arrival: route through the sharded engine's mailbox.
		// ser ≥ uplink header serialization, so at ≥ now + ShardLookahead and
		// the lookahead assertion in Send holds for every packet size.
		sh.SendTag(u.tor.dom.id, dst.dom.id, at, tag, dst.ingressFn, p)
	} else {
		u.tor.dom.eng.At1Tag(at, tag, dst.ingressFn, p)
	}
	// The wakeup at busyUntil can only send what the slice's calendar queue
	// or the rotor VOQs hold by then; with both empty now, it waits on work.
	u.wakeAt(u.busyUntil, u.busyUntil < end && u.find(c) < 0 && (u.tor.rotor == nil || u.tor.rotor.empty()))
}

// queuedBytes reports the data bytes parked across all calendar queues.
func (u *uplinkPort) queuedBytes() int64 {
	var b int64
	for i := range u.cal {
		b += u.cal[i].q.DataBytes()
	}
	return b
}

func (u *uplinkPort) takeBytes() int64 { return u.meter.take() }
