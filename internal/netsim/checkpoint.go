package netsim

// Checkpoint/restore for the fabric (DESIGN.md §15). Snapshot re-encodes the
// network's full mutable state — per-domain engine clocks, pending events as
// pure descriptors, flow progress, every port queue with its parked packets
// (RotorLB VOQs as the records they hold), the slice-boundary boards, and the
// counter shards — into named sections of
// a checkpoint.Writer. RestoreFrom rebuilds that state onto a freshly
// constructed Network whose flows have been re-registered (the deterministic
// workload regeneration reproduces registration order, so dense indices are
// the stable identity packets and endpoints are serialized under).
//
// Closures are never serialized: pending events carry sim.EventTags naming
// what the closure does, and restore re-binds the model's own pre-bound
// method values (boundaryFn, pumpFn, recvFn, ...) in recorded (at, seq)
// order, which hands out fresh sequence numbers with identical same-instant
// tie-breaking. Event kinds netsim does not own (transport timers, metrics
// ticks) are delegated to the ext callback.
//
// On any decode error the target network is left partially restored and must
// be discarded; the harness falls back to building a clean cold run.

import (
	"fmt"
	"slices"
	"sort"

	"ucmp/internal/checkpoint"
	"ucmp/internal/sim"
)

// Every registered event kind has its own slot in sim.EventKinds.
var _ [sim.NumEventKinds - checkpoint.NumKinds]struct{}

// RestoreExt handles event descriptors whose kind netsim does not own
// (transport and metrics events). It must re-schedule the described event on
// eng — via the tagged scheduling calls or Timer.RestoreOccurrence — or
// return an error to abort the restore.
type RestoreExt func(eng *sim.Engine, at sim.Time, tag sim.EventTag, timer, armed bool, deadline sim.Time) error

// RestoredRotorWaiter is one parked RotorLB credit callback recovered from a
// checkpoint: Flow's sender was waiting at ToR Tor for local-VOQ credit
// toward Dst. The transport re-parks it via RotorNotify after restoring the
// endpoints (netsim cannot rebuild the sender's closure itself).
type RestoredRotorWaiter struct {
	Tor, Dst int
	Flow     *Flow
}

// RestoredRotorWaiters drains the waiter records decoded by RestoreFrom, in
// recorded order (ToR-major, then destination, then parking order — the
// order RotorNotify must re-park them in).
func (n *Network) RestoredRotorWaiters() []RestoredRotorWaiter {
	ws := n.restoredWaiters
	n.restoredWaiters = nil
	return ws
}

// FlowAt returns the flow with the given dense index, or nil when out of
// range. Dense indices are the flow identity inside checkpoints.
func (n *Network) FlowAt(dense int) *Flow {
	if dense < 0 || dense >= len(n.flowList) {
		return nil
	}
	return n.flowList[dense]
}

// Snapshot encodes the network's complete mutable state into w. It must run
// at an instant when no event is mid-flight: between segmented serial Run
// calls, or inside a sharded Global callback (the mailboxes are flushed
// here, which is exactly the merge the next window would have performed).
// An untagged pending event makes the snapshot impossible and returns an
// error; the network itself is never perturbed either way.
func (n *Network) Snapshot(w *checkpoint.Writer) error {
	if n.sharded != nil {
		n.sharded.FlushMailboxes()
	}

	e := w.Section("engine")
	if n.sharded != nil {
		e.U8(1)
		e.I64(int64(n.sharded.GlobalNow()))
	} else {
		e.U8(0)
		e.I64(int64(n.Eng.Now()))
	}
	e.Len(len(n.doms))
	for _, d := range n.doms {
		e.I64(int64(d.eng.Now()))
		for _, c := range d.eng.EventKinds() {
			e.U64(c)
		}
	}

	ev := w.Section("events")
	ev.Len(len(n.doms))
	for _, d := range n.doms {
		descs, err := d.eng.SnapshotEvents(n.snapDescs[:0])
		if err == nil {
			err = encodeEvents(ev, descs)
		}
		clear(descs) // descriptors carry packets
		n.snapDescs = descs[:0]
		if err != nil {
			return err
		}
	}

	fe := w.Section("flows")
	fe.Len(len(n.flowList))
	for _, f := range n.flowList {
		fe.I64(f.ID)
		fe.I64(f.BytesSent)
		fe.I64(f.BytesDelivered)
		fe.Bool(f.Finished)
		fe.I64(int64(f.FinishedAt))
	}

	pe := w.Section("ports")
	pe.Len(len(n.ToRs))
	var live []int      // scratch: indices of one sparse list
	var slots []calSlot // scratch: one port's calendar slots by slice
	for _, t := range n.ToRs {
		// The circuit arrivals of an instant are drained before the instant
		// ends (ToR.ingressArrive), so no snapshot finds any buffered.
		pe.U64(t.linkSeq)
		for _, dp := range t.down {
			pe.I64(int64(dp.busyUntil))
			pe.I64(dp.meter.total)
			pe.I64(dp.meter.last)
			encodeQueue(pe, &dp.queue)
			encodeFifo(pe, &dp.stage)
		}
		for _, u := range t.up {
			pe.I64(int64(u.busyUntil))
			pe.I64(u.meter.total)
			pe.I64(u.meter.last)
			// Calendar queues and rotor destinations are recorded sparsely — a
			// count, then (index, state) in ascending index order for those
			// that hold anything. For the calendar that is the port's slot
			// list, sorted: its order in memory is history, not state.
			slots = append(slots[:0], u.cal...)
			slices.SortFunc(slots, func(a, b calSlot) int { return a.c - b.c })
			pe.Len(len(slots))
			for _, s := range slots {
				pe.I32(int32(s.c))
				encodeQueue(pe, s.q)
			}
		}
		pe.Bool(t.rotor != nil)
		if r := t.rotor; r != nil {
			pe.I32(int32(r.rr))
			live = live[:0]
			for dst := range r.local { // nil while the ToR has carried nothing
				if r.local[dst].len() > 0 || r.nonlocal[dst].len() > 0 || len(r.waiters[dst]) > 0 {
					live = append(live, dst)
				}
			}
			pe.Len(len(live))
			for _, dst := range live {
				pe.I32(int32(dst))
				encodeVOQ(pe, &r.local[dst])
				encodeVOQ(pe, &r.nonlocal[dst])
				pe.Len(len(r.waiters[dst]))
				for _, wt := range r.waiters[dst] {
					pe.I32(int32(wt.f.dense))
				}
			}
		}
	}
	pe.Len(len(n.Hosts))
	var queued []*Flow // one host's flows with a non-empty NIC queue
	for _, h := range n.Hosts {
		hp := h.port
		pe.I64(int64(hp.busyUntil))
		pe.I64(hp.meter.total)
		pe.I64(hp.meter.last)
		encodeFifo(pe, &hp.high)
		encodeFifo(pe, &hp.anon)
		// Per-flow queues — built packets, then the run of segments still to
		// be built — are recorded in ascending dense order. Every non-empty
		// one is on the ring, so the ring is all there is to walk.
		queued = queued[:0]
		for _, f := range hp.ring {
			if f != nil && hp.queued(f) {
				queued = append(queued, f)
			}
		}
		sort.Slice(queued, func(i, j int) bool { return queued[i].dense < queued[j].dense })
		pe.Len(len(queued))
		for _, f := range queued {
			pe.I32(int32(f.dense))
			encodeFifo(pe, &f.nic)
			pe.I64(f.run.next)
			pe.I64(f.run.end)
			pe.I32(int32(f.run.mss))
			pe.I64(int64(f.run.sentAt))
		}
		pe.Len(len(hp.ring))
		for _, f := range hp.ring {
			id := anonQueue
			if f != nil {
				id = f.dense
			}
			pe.I32(int32(id))
		}
		pe.I32(int32(hp.rr))
	}

	be := w.Section("boards")
	be.Bool(n.rotorSnap != nil)
	if n.rotorSnap != nil {
		be.Len(len(n.rotorSnap))
		for _, v := range n.rotorSnap {
			be.I64(v)
		}
	}
	be.Bool(n.congSnap != nil)
	if n.congSnap != nil {
		be.Len(len(n.congSnap))
		for _, v := range n.congSnap {
			be.I32(v)
		}
	}

	ce := w.Section("counters")
	ce.Len(len(n.doms))
	for _, d := range n.doms {
		encodeCounters(ce, d.ctr)
		ce.Len(len(d.finished))
		for _, f := range d.finished {
			ce.I32(int32(f.dense))
		}
	}
	return nil
}

// RestoreFrom rebuilds the snapshot state onto this network, which must be
// freshly constructed under the identical configuration, with every flow of
// the workload already registered (and endpoints attached) but Start not
// called and nothing run. Any validation or decode error aborts the restore
// with the network in an undefined state — discard it and run cold.
func (n *Network) RestoreFrom(f *checkpoint.File, ext RestoreExt) error {
	ed, err := f.Section("engine")
	if err != nil {
		return err
	}
	mode := ed.U8()
	want := uint8(0)
	if n.sharded != nil {
		want = 1
	}
	if mode != want {
		return fmt.Errorf("checkpoint: engine mode %d, network wants %d (serial/sharded mismatch)", mode, want)
	}
	global := sim.Time(ed.I64())
	if nd := ed.Len(); nd != len(n.doms) {
		return fmt.Errorf("checkpoint: %d domains in file, network has %d", nd, len(n.doms))
	}
	for _, d := range n.doms {
		now := sim.Time(ed.I64())
		var executed sim.EventKinds
		for i := range executed {
			executed[i] = ed.U64()
		}
		if ed.Err() != nil {
			return ed.Err()
		}
		d.eng.Restore(now, executed)
	}
	if n.sharded != nil {
		n.sharded.RestoreGlobalNow(global)
	}
	if err := ed.Err(); err != nil {
		return err
	}

	fd, err := f.Section("flows")
	if err != nil {
		return err
	}
	if cnt := fd.Len(); cnt != len(n.flowList) {
		return fmt.Errorf("checkpoint: %d flows in file, workload registered %d", cnt, len(n.flowList))
	}
	for _, fl := range n.flowList {
		id := fd.I64()
		if fd.Err() == nil && id != fl.ID {
			return fmt.Errorf("checkpoint: flow id %d at dense %d, workload has %d", id, fl.dense, fl.ID)
		}
		fl.BytesSent = fd.I64()
		fl.BytesDelivered = fd.I64()
		fl.Finished = fd.Bool()
		fl.FinishedAt = sim.Time(fd.I64())
	}
	if err := fd.Err(); err != nil {
		return err
	}

	vd, err := f.Section("events")
	if err != nil {
		return err
	}
	if nd := vd.Len(); nd != len(n.doms) {
		return fmt.Errorf("checkpoint: event stream covers %d domains, network has %d", nd, len(n.doms))
	}
	for _, d := range n.doms {
		cnt := vd.Len()
		for j := 0; j < cnt; j++ {
			if err := n.restoreEvent(d, vd, ext); err != nil {
				return err
			}
		}
	}
	if err := vd.Err(); err != nil {
		return err
	}

	pd, err := f.Section("ports")
	if err != nil {
		return err
	}
	if cnt := pd.Len(); cnt != len(n.ToRs) {
		return fmt.Errorf("checkpoint: %d ToRs in file, network has %d", cnt, len(n.ToRs))
	}
	for _, t := range n.ToRs {
		t.linkSeq = pd.U64()
		for _, dp := range t.down {
			dp.busyUntil = sim.Time(pd.I64())
			dp.meter.total = pd.I64()
			dp.meter.last = pd.I64()
			if err := decodeQueue(pd, t.dom, &dp.queue); err != nil {
				return err
			}
			if err := decodeFifo(pd, t.dom, &dp.stage); err != nil {
				return err
			}
		}
		for _, u := range t.up {
			u.busyUntil = sim.Time(pd.I64())
			u.meter.total = pd.I64()
			u.meter.last = pd.I64()
			prev := -1
			for left := pd.Len(); left > 0; left-- {
				c, err := sparseIndex(pd, prev, n.F.Sched.S, "calendar queue")
				if err != nil {
					return err
				}
				prev = c
				q := u.slotFor(c)
				if err := decodeQueue(pd, t.dom, q); err != nil {
					return err
				}
				if q.Len() == 0 {
					return fmt.Errorf("checkpoint: empty calendar queue %d recorded at ToR %d port %d", c, t.id, u.sw)
				}
			}
			// The per-slice cache is not serialized: a zero sliceEnd makes the
			// first pump recompute it from `now`, which yields exactly what the
			// uninterrupted run's cache held.
			u.sliceEnd = 0
		}
		hasRotor := pd.Bool()
		if pd.Err() != nil {
			return pd.Err()
		}
		if hasRotor != (t.rotor != nil) {
			return fmt.Errorf("checkpoint: rotor state presence mismatch at ToR %d", t.id)
		}
		if r := t.rotor; r != nil {
			*r = rotorState{tor: t, n: r.n, rr: int(pd.I32())}
			if pd.Err() == nil && (r.rr < 0 || r.rr >= r.n) {
				return fmt.Errorf("checkpoint: rotor scan position %d out of range at ToR %d", r.rr, t.id)
			}
			prev := -1
			for left := pd.Len(); left > 0; left-- {
				dst, err := sparseIndex(pd, prev, r.n, "rotor destination")
				if err != nil {
					return err
				}
				prev = dst
				if err := r.restoreVOQs(pd, dst); err != nil {
					return err
				}
				wcnt := pd.Len()
				for j := 0; j < wcnt; j++ {
					fl := n.FlowAt(int(pd.I32()))
					if pd.Err() != nil {
						return pd.Err()
					}
					if fl == nil {
						return fmt.Errorf("checkpoint: rotor waiter at ToR %d references unknown flow", t.id)
					}
					n.restoredWaiters = append(n.restoredWaiters, RestoredRotorWaiter{Tor: t.id, Dst: dst, Flow: fl})
				}
			}
		}
	}
	if cnt := pd.Len(); cnt != len(n.Hosts) {
		return fmt.Errorf("checkpoint: %d hosts in file, network has %d", cnt, len(n.Hosts))
	}
	for _, h := range n.Hosts {
		hp := h.port
		hp.busyUntil = sim.Time(pd.I64())
		hp.meter.total = pd.I64()
		hp.meter.last = pd.I64()
		if err := decodeFifo(pd, h.dom, &hp.high); err != nil {
			return err
		}
		if err := decodeFifo(pd, h.dom, &hp.anon); err != nil {
			return err
		}
		// A NIC queue lives on its flow, so a record is only acceptable for a
		// flow this host sources, once: anything else would splice two hosts'
		// queues together. Records come in ascending dense order.
		nq := pd.Len()
		prev := -1
		for j := 0; j < nq; j++ {
			id := int(pd.I32())
			if pd.Err() != nil {
				return pd.Err()
			}
			fl, err := n.nicFlow(h, id)
			if err != nil {
				return err
			}
			if id <= prev {
				return fmt.Errorf("checkpoint: host %d NIC queue for flow %d recorded twice or out of order", h.id, id)
			}
			prev = id
			if err := decodeFifo(pd, h.dom, &fl.nic); err != nil {
				return err
			}
			run := nicRun{next: pd.I64(), end: pd.I64(), mss: int(pd.I32()), sentAt: sim.Time(pd.I64())}
			if pd.Err() != nil {
				return pd.Err()
			}
			if run.next > run.end || run.pending() && (run.next < 0 || run.end > fl.Size || run.mss <= 0) {
				return fmt.Errorf("checkpoint: host %d NIC run [%d, %d) mss %d does not fit flow %d of %d bytes",
					h.id, run.next, run.end, run.mss, id, fl.Size)
			}
			fl.run = run
		}
		rcnt := pd.Len()
		hp.ring = hp.ring[:0]
		for j := 0; j < rcnt; j++ {
			id := int(pd.I32())
			if pd.Err() != nil {
				return pd.Err()
			}
			var fl *Flow // anonQueue
			if id != anonQueue {
				var err error
				if fl, err = n.nicFlow(h, id); err != nil {
					return err
				}
			}
			hp.ring = append(hp.ring, fl)
		}
		hp.rr = int(pd.I32())
	}
	if err := pd.Err(); err != nil {
		return err
	}

	bd, err := f.Section("boards")
	if err != nil {
		return err
	}
	if has := bd.Bool(); has != (n.rotorSnap != nil) {
		return fmt.Errorf("checkpoint: rotor board presence mismatch")
	}
	if n.rotorSnap != nil {
		if cnt := bd.Len(); cnt != len(n.rotorSnap) {
			return fmt.Errorf("checkpoint: rotor board has %d slots, network has %d", cnt, len(n.rotorSnap))
		}
		for i := range n.rotorSnap {
			n.rotorSnap[i] = bd.I64()
		}
	}
	if has := bd.Bool(); has != (n.congSnap != nil) {
		return fmt.Errorf("checkpoint: congestion board presence mismatch")
	}
	if n.congSnap != nil {
		if cnt := bd.Len(); cnt != len(n.congSnap) {
			return fmt.Errorf("checkpoint: congestion board has %d slots, network has %d", cnt, len(n.congSnap))
		}
		for i := range n.congSnap {
			n.congSnap[i] = bd.I32()
		}
	}
	if err := bd.Err(); err != nil {
		return err
	}

	cd, err := f.Section("counters")
	if err != nil {
		return err
	}
	if cnt := cd.Len(); cnt != len(n.doms) {
		return fmt.Errorf("checkpoint: %d counter shards in file, network has %d", cnt, len(n.doms))
	}
	for _, d := range n.doms {
		decodeCounters(cd, d.ctr)
		fcnt := cd.Len()
		d.finished = nil
		for j := 0; j < fcnt; j++ {
			fl := n.FlowAt(int(cd.I32()))
			if cd.Err() != nil {
				return cd.Err()
			}
			if fl == nil {
				return fmt.Errorf("checkpoint: finished list references unknown flow")
			}
			d.finished = append(d.finished, fl)
		}
	}
	return cd.Err()
}

// sparseIndex reads the next index of a sparse list, which must lie in
// [0, n) above prev: a list that repeats or reorders indices would restore
// two records onto one queue.
func sparseIndex(dec *checkpoint.Decoder, prev, n int, what string) (int, error) {
	i := int(dec.I32())
	if err := dec.Err(); err != nil {
		return 0, err
	}
	if i <= prev || i >= n {
		return 0, fmt.Errorf("checkpoint: %s index %d after %d, of %d", what, i, prev, n)
	}
	return i, nil
}

// anonQueue is the ring id a checkpoint records for a host NIC's anon queue
// (dense flow indices name the per-flow queues).
const anonQueue = -1

// nicFlow resolves a dense index recorded in host h's NIC section to the
// flow whose queue it names, which must be one h sources.
func (n *Network) nicFlow(h *Host, dense int) (*Flow, error) {
	fl := n.FlowAt(dense)
	if fl == nil {
		return nil, fmt.Errorf("checkpoint: host %d NIC references unknown flow %d", h.id, dense)
	}
	if fl.SrcHost != h.id {
		return nil, fmt.Errorf("checkpoint: host %d NIC references flow %d, which host %d sources", h.id, dense, fl.SrcHost)
	}
	return fl, nil
}

// encodeVOQ writes a VOQ as a count of packets and one record for each, in
// its own encoding rather than as the packet it stands for.
func encodeVOQ(e *checkpoint.Encoder, q *voq) {
	e.Len(q.len())
	q.each(func(rec *voqRec) { rec.encode(e) })
}

// restoreVOQs decodes the local, then the nonlocal VOQ of one destination
// into chunks of the ToR's domain. Byte/packet accounting and the occupancy
// bitset are derived, not stored: each decoded record is added as a push
// adds one, so consecutive segments merge into runs again. A destination
// that holds no record (one listed for its waiters) allocates nothing.
//
// A record is only acceptable in a VOQ its flow could have reached: one for
// the flow's destination ToR, and a local one only at the flow's source ToR.
// Anything else would restore a packet onto another destination's queue.
func (r *rotorState) restoreVOQs(dec *checkpoint.Decoder, dst int) error {
	for i, add := range [2]func(int, voqRec){r.addLocal, r.addNonlocal} {
		for left := dec.Len(); left > 0; left-- {
			rec, err := r.tor.net.decodeRec(dec)
			if err != nil {
				return err
			}
			switch f := r.tor.net.flowList[rec.flow]; {
			case f.dstToR != dst:
				return fmt.Errorf("checkpoint: ToR %d rotor VOQ for ToR %d holds flow %d, which goes to ToR %d",
					r.tor.id, dst, rec.flow, f.dstToR)
			case i == 0 && f.srcToR != r.tor.id:
				return fmt.Errorf("checkpoint: ToR %d local rotor VOQ holds flow %d, which ToR %d sources",
					r.tor.id, rec.flow, f.srcToR)
			}
			r.alloc()
			add(dst, rec)
		}
	}
	return dec.Err()
}

// restoreEvent decodes one event descriptor and re-schedules it: netsim
// kinds re-bind the model's own closures; foreign kinds go to ext.
func (n *Network) restoreEvent(d *domain, dec *checkpoint.Decoder, ext RestoreExt) error {
	at := sim.Time(dec.I64())
	tag := sim.EventTag{Kind: dec.U8(), A: dec.I32(), B: dec.I32()}
	flags := dec.U8()
	timer := flags&1 != 0
	armed := flags&2 != 0
	var deadline sim.Time
	if timer {
		deadline = sim.Time(dec.I64())
	}
	var p *Packet
	if flags&4 != 0 {
		var err error
		p, err = decodePacket(dec, d)
		if err != nil {
			return err
		}
	}
	if err := dec.Err(); err != nil {
		return err
	}

	tor := func() (*ToR, error) {
		if int(tag.A) < 0 || int(tag.A) >= len(n.ToRs) {
			return nil, fmt.Errorf("checkpoint: event kind %d references unknown ToR %d", tag.Kind, tag.A)
		}
		t := n.ToRs[tag.A]
		if t.dom != d {
			return nil, fmt.Errorf("checkpoint: event for ToR %d recorded in the wrong domain", tag.A)
		}
		return t, nil
	}
	host := func() (*Host, error) {
		if int(tag.A) < 0 || int(tag.A) >= len(n.Hosts) {
			return nil, fmt.Errorf("checkpoint: event kind %d references unknown host %d", tag.Kind, tag.A)
		}
		h := n.Hosts[tag.A]
		if h.dom != d {
			return nil, fmt.Errorf("checkpoint: event for host %d recorded in the wrong domain", tag.A)
		}
		return h, nil
	}

	switch tag.Kind {
	case checkpoint.KindBoundary:
		if int(tag.A) < 0 || int(tag.A) >= len(n.doms) || n.doms[tag.A] != d {
			return fmt.Errorf("checkpoint: boundary event references domain %d", tag.A)
		}
		d.eng.AtTag(at, tag, d.boundaryFn)
	case checkpoint.KindPumpDown:
		h, err := host()
		if err != nil {
			return err
		}
		t := n.ToRs[h.tor]
		d.eng.AtTag(at, tag, t.down[h.id-h.tor*n.F.HostsPerToR].pumpFn)
	case checkpoint.KindPumpHost:
		h, err := host()
		if err != nil {
			return err
		}
		d.eng.AtTag(at, tag, h.port.pumpFn)
	case checkpoint.KindDeliverHost:
		h, err := host()
		if err != nil {
			return err
		}
		if p == nil {
			return fmt.Errorf("checkpoint: delivery event without a packet")
		}
		d.eng.At1Tag(at, tag, h.recvFn, p)
	case checkpoint.KindRecvHost:
		t, err := tor()
		if err != nil {
			return err
		}
		if p == nil {
			return fmt.Errorf("checkpoint: NIC arrival event without a packet")
		}
		d.eng.At1Tag(at, tag, t.recvHostFn, p)
	case checkpoint.KindIngress:
		t, err := tor()
		if err != nil {
			return err
		}
		if p == nil {
			return fmt.Errorf("checkpoint: ingress event without a packet")
		}
		d.eng.At1Tag(at, tag, t.ingressFn, p)
	case checkpoint.KindWakeUplink:
		t, err := tor()
		if err != nil {
			return err
		}
		if !timer {
			return fmt.Errorf("checkpoint: uplink wake event is not a timer occurrence")
		}
		if int(tag.B) < 0 || int(tag.B) >= len(t.up) {
			return fmt.Errorf("checkpoint: uplink wake references unknown port %d at ToR %d", tag.B, tag.A)
		}
		t.up[tag.B].wake.RestoreOccurrence(at, deadline, armed)
	default:
		if p != nil {
			return fmt.Errorf("checkpoint: packet attached to foreign event kind %d", tag.Kind)
		}
		if ext == nil {
			return fmt.Errorf("checkpoint: no handler for event kind %d", tag.Kind)
		}
		return ext(d.eng, at, tag, timer, armed, deadline)
	}
	return nil
}

// encodeEvents writes one domain's pending-event descriptors, count first.
func encodeEvents(e *checkpoint.Encoder, descs []sim.EventDesc) error {
	e.Len(len(descs))
	for i := range descs {
		if err := encodeEventDesc(e, &descs[i]); err != nil {
			return err
		}
	}
	return nil
}

// encodeEventDesc writes one pending-event descriptor. Packet-carrying
// events serialize the packet inline; any other argument type is a bug.
func encodeEventDesc(e *checkpoint.Encoder, desc *sim.EventDesc) error {
	flags := uint8(0)
	if desc.Timer {
		flags |= 1
	}
	if desc.Armed {
		flags |= 2
	}
	var p *Packet
	if desc.Arg != nil {
		pk, ok := desc.Arg.(*Packet)
		if !ok {
			return fmt.Errorf("checkpoint: pending event kind %d carries unserializable argument %T", desc.Tag.Kind, desc.Arg)
		}
		p = pk
		flags |= 4
	}
	e.I64(int64(desc.At))
	e.U8(desc.Tag.Kind)
	e.I32(desc.Tag.A)
	e.I32(desc.Tag.B)
	e.U8(flags)
	if desc.Timer {
		e.I64(int64(desc.Deadline))
	}
	if p != nil {
		encodePacket(e, p)
	}
	return nil
}

func encodePacket(e *checkpoint.Encoder, p *Packet) {
	dense := int32(-1)
	if p.Flow != nil {
		dense = int32(p.Flow.dense)
	}
	e.I32(dense)
	e.U8(uint8(p.Type))
	e.I64(p.Seq)
	e.I32(int32(p.PayloadLen))
	e.I32(int32(p.WireLen))
	e.Bool(p.ECNCapable)
	e.Bool(p.ECNMarked)
	e.Bool(p.EchoECN)
	e.Bool(p.Trimmed)
	e.I32(int32(p.Bucket))
	e.I32(int32(p.SrcHost))
	e.I32(int32(p.DstHost))
	e.I32(int32(p.SrcToR))
	e.I32(int32(p.DstToR))
	e.Len(len(p.Route))
	for _, h := range p.Route {
		e.I32(int32(h.To))
		e.I64(h.AbsSlice)
	}
	e.I32(int32(p.RouteIdx))
	e.I32(int32(p.Rerouted))
	e.Bool(p.WasRerouted)
	e.I32(int32(p.TorHops))
	e.I64(int64(p.SentAt))
	e.U8(uint8(p.RecoveredVia))
	e.I64(int64(p.FaultAt))
	e.I32(p.linkSrc)
	e.U64(p.linkSeq)
}

// decodePacket rebuilds a packet from the owning domain's pool (keeping the
// pool's leak ledger balanced: the packet will be released through it).
func decodePacket(dec *checkpoint.Decoder, d *domain) (*Packet, error) {
	p := d.newPacket()
	dense := dec.I32()
	if dense != -1 {
		p.Flow = d.net.FlowAt(int(dense))
		if dec.Err() == nil && p.Flow == nil {
			return nil, fmt.Errorf("checkpoint: packet references unknown flow dense index %d", dense)
		}
	}
	p.Type = PacketType(dec.U8())
	p.Seq = dec.I64()
	p.PayloadLen = int(dec.I32())
	p.WireLen = int(dec.I32())
	p.ECNCapable = dec.Bool()
	p.ECNMarked = dec.Bool()
	p.EchoECN = dec.Bool()
	p.Trimmed = dec.Bool()
	p.Bucket = int(dec.I32())
	p.SrcHost = int(dec.I32())
	p.DstHost = int(dec.I32())
	p.SrcToR = int(dec.I32())
	p.DstToR = int(dec.I32())
	hops := dec.Len()
	p.Route = p.Route[:0]
	for i := 0; i < hops; i++ {
		p.Route = append(p.Route, PlannedHop{To: int(dec.I32()), AbsSlice: dec.I64()})
	}
	p.RouteIdx = int(dec.I32())
	p.Rerouted = int(dec.I32())
	p.WasRerouted = dec.Bool()
	p.TorHops = int(dec.I32())
	p.SentAt = sim.Time(dec.I64())
	p.RecoveredVia = RecoveryClass(dec.U8())
	p.FaultAt = sim.Time(dec.I64())
	p.linkSrc = dec.I32()
	p.linkSeq = dec.U64()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

func encodeFifo(e *checkpoint.Encoder, f *fifo) {
	e.Len(f.len())
	for _, p := range f.items[f.head:] {
		encodePacket(e, p)
	}
}

func decodeFifo(dec *checkpoint.Decoder, d *domain, f *fifo) error {
	cnt := dec.Len()
	f.items = f.items[:0]
	f.head = 0
	for i := 0; i < cnt; i++ {
		p, err := decodePacket(dec, d)
		if err != nil {
			return err
		}
		f.items = append(f.items, p)
	}
	return dec.Err()
}

func encodeQueue(e *checkpoint.Encoder, q *Queue) {
	encodeFifo(e, &q.high)
	encodeFifo(e, &q.low)
}

func decodeQueue(dec *checkpoint.Decoder, d *domain, q *Queue) error {
	if err := decodeFifo(dec, d, &q.high); err != nil {
		return err
	}
	if err := decodeFifo(dec, d, &q.low); err != nil {
		return err
	}
	// dataBytes is derived: the sum over the data band.
	q.dataBytes = 0
	for _, p := range q.low.items[q.low.head:] {
		q.dataBytes += int64(p.WireLen)
	}
	return dec.Err()
}

func encodeCounters(e *checkpoint.Encoder, c *Counters) {
	e.I64(c.DataBytesSent)
	e.I64(c.DataBytesDelivered)
	e.I64(c.TorToTorBytes)
	e.I64(c.HostToTorBytes)
	e.I64(c.TorToHostBytes)
	e.I64(c.DataPackets)
	e.I64(c.ReroutedPackets)
	e.I64(c.DroppedPackets)
	e.I64(c.RotorDrops)
	e.I64(c.DataInjected)
	e.I64(c.DataDelivered)
	e.I64(c.TrimmedDelivered)
	e.I64(c.DataDropped)
	e.I64(c.ExpiredInCalendar)
	e.I64(c.LateArrivals)
	e.I64(c.CalendarFull)
	e.I64(c.RecoveredSameLength)
	e.I64(c.RecoveredShorter)
	e.I64(c.RecoveredLonger)
	e.I64(c.RecoveredBackup)
	e.I64(c.RecoveryFailed)
	e.I64(c.FaultDrops)
	e.I64(c.CongestionSteered)
	for i := range c.RerouteWait {
		e.I64(c.RerouteWait[i])
	}
}

func decodeCounters(dec *checkpoint.Decoder, c *Counters) {
	c.DataBytesSent = dec.I64()
	c.DataBytesDelivered = dec.I64()
	c.TorToTorBytes = dec.I64()
	c.HostToTorBytes = dec.I64()
	c.TorToHostBytes = dec.I64()
	c.DataPackets = dec.I64()
	c.ReroutedPackets = dec.I64()
	c.DroppedPackets = dec.I64()
	c.RotorDrops = dec.I64()
	c.DataInjected = dec.I64()
	c.DataDelivered = dec.I64()
	c.TrimmedDelivered = dec.I64()
	c.DataDropped = dec.I64()
	c.ExpiredInCalendar = dec.I64()
	c.LateArrivals = dec.I64()
	c.CalendarFull = dec.I64()
	c.RecoveredSameLength = dec.I64()
	c.RecoveredShorter = dec.I64()
	c.RecoveredLonger = dec.I64()
	c.RecoveredBackup = dec.I64()
	c.RecoveryFailed = dec.I64()
	c.FaultDrops = dec.I64()
	c.CongestionSteered = dec.I64()
	for i := range c.RerouteWait {
		c.RerouteWait[i] = dec.I64()
	}
}
