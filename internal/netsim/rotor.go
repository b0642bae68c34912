package netsim

import (
	"math/bits"

	"ucmp/internal/sim"
)

// rotorState implements the RotorLB-style hop-by-hop machinery used for
// VLB-class traffic: per-destination local VOQs (traffic originating at
// this ToR) and nonlocal VOQs (indirect traffic parked here for its final
// hop). Per slice and uplink, the draining priority is
//
//  1. nonlocal traffic whose destination is the current peer,
//  2. local traffic destined to the peer (direct, 1-hop),
//  3. local traffic for other destinations, indirected via the peer with
//     the slice's spare capacity (2-hop, VLB phase 1),
//
// which is the RotorLB ordering from the Opera/RotorNet line of work. The
// offer/accept exchange is replaced by a cap on the receiver's nonlocal
// backlog, checked at the sender against the slice-boundary snapshot every
// ToR publishes (documented substitution, DESIGN.md §1, §6): backlog
// state crosses ToRs only at slice boundaries, which are at least one
// lookahead window apart, so the exchange shards without synchronous peer
// reads and behaves identically in serial and sharded runs.
type rotorState struct {
	tor *ToR
	n   int // destinations: the fabric's ToR count

	// The per-destination arrays below are allocated together, by alloc, on
	// the first push or credit wait: a ToR that never carries rotor traffic
	// (every ToR of a source-routed run) holds no N-sized state.
	//
	// A VOQ holds records, not packets (voq.go): a push reduces the packet to
	// its 32-byte record and releases it, and selectPacket rebuilds the head
	// from the domain's pool once it is known to fit the slice. The backlog is
	// unbounded and most of a rotor run's state, so a Packet exists only on a
	// wire, in an event, or in a bounded queue.
	local    []voq
	nonlocal []voq

	localBytes    []int64
	nonlocalBytes []int64
	totalNonlocal int64

	// localPkts/nonlocalPkts count queued packets across all VOQs, so the
	// uplink pump's per-slice probing (selectPacket, backlogFor) costs one
	// compare when the rotor is idle — which is always, for non-VLB
	// transports that still instantiate the rotor machinery.
	localPkts    int
	nonlocalPkts int

	// localSet has bit dst set exactly while local[dst] is non-empty, so the
	// indirect-hop choice visits occupied VOQs instead of scanning all N.
	localSet []uint64

	// waiters are one-shot host callbacks awaiting local-VOQ credit, each
	// tagged with the waiting flow so checkpoints can name it.
	waiters [][]rotorWaiter

	// rr rotates the indirect destination scan for fairness.
	rr int
}

// rotorWaiter is one parked credit callback: the flow whose sender is
// waiting (its dense index is what a checkpoint records) and the callback.
type rotorWaiter struct {
	f  *Flow
	fn func()
}

func newRotorState(t *ToR, n int) *rotorState { return &rotorState{tor: t, n: n} }

// alloc creates the per-destination arrays on first use.
func (r *rotorState) alloc() {
	if r.local != nil {
		return
	}
	r.local = make([]voq, r.n)
	r.nonlocal = make([]voq, r.n)
	r.localBytes = make([]int64, r.n)
	r.nonlocalBytes = make([]int64, r.n)
	r.localSet = make([]uint64, (r.n+63)/64)
	r.waiters = make([][]rotorWaiter, r.n)
}

// addLocal appends a record to local VOQ dst and accounts for it.
func (r *rotorState) addLocal(dst int, rec voqRec) {
	r.local[dst].push(&r.tor.dom.voqs, rec)
	r.localSet[dst>>6] |= 1 << (dst & 63)
	r.localBytes[dst] += int64(rec.wireLen())
	r.localPkts++
}

// addNonlocal appends a record to nonlocal VOQ dst and accounts for it.
func (r *rotorState) addNonlocal(dst int, rec voqRec) {
	r.nonlocal[dst].push(&r.tor.dom.voqs, rec)
	wire := int64(rec.wireLen())
	r.nonlocalBytes[dst] += wire
	r.totalNonlocal += wire
	r.nonlocalPkts++
}

// unpark removes the head record of q and rebuilds its packet from the
// domain's pool.
func (r *rotorState) unpark(q *voq) *Packet {
	d := r.tor.dom
	p := d.newPacket()
	r.tor.net.rebuild(q.front(), p)
	q.pop(&d.voqs)
	return p
}

// pushLocal admits a packet from a local host as a record and releases it:
// the caller must not touch the packet afterwards. Hosts are expected to
// respect RotorHasCredit, but overflow is tolerated (the VOQ is unbounded;
// the credit check is what provides backpressure).
func (r *rotorState) pushLocal(p *Packet) {
	r.alloc()
	dst := p.DstToR
	r.addLocal(dst, r.tor.net.record(p))
	r.tor.dom.release(p)
	r.tor.pumpFor(dst) // direct circuit may be up right now
	// Any circuit can carry it indirectly; kick all ports so spare slice
	// capacity is used promptly.
	for _, u := range r.tor.up {
		u.pump()
	}
}

// pushNonlocal parks an indirect packet for its final hop, as a record, and
// releases it.
func (r *rotorState) pushNonlocal(p *Packet) {
	r.alloc()
	dst := p.DstToR
	r.addNonlocal(dst, r.tor.net.record(p))
	r.tor.dom.release(p)
	r.tor.pumpFor(dst)
}

// empty reports whether no VOQ of the ToR holds a record.
func (r *rotorState) empty() bool { return r.localPkts == 0 && r.nonlocalPkts == 0 }

// selectPacket picks the next rotor packet to send toward peer. budget is
// the serialization time remaining in the slice: a candidate fits when its
// uplink serialization delay is within it, and a first candidate that does
// not fit ends the search. abs is the current absolute slice, used to read
// the peer's published backlog snapshot. Returns nil when nothing eligible.
// The budget test reads the head record's wire length; a packet is rebuilt
// only for the record that leaves.
// Final-hop room is no longer checked here: the destination ToR stages rotor
// arrivals above its downlink threshold (downPort.stage), so losslessness
// holds without a cross-ToR occupancy read on the send path.
func (r *rotorState) selectPacket(peer int, budget sim.Time, abs int64) *Packet {
	if r.empty() {
		return nil
	}
	net := r.tor.net
	// 1. Nonlocal traffic completing its second hop.
	if q := &r.nonlocal[peer]; q.len() > 0 {
		wire := q.front().wireLen()
		if net.serdelayUp(wire) > budget {
			return nil
		}
		r.nonlocalBytes[peer] -= int64(wire)
		r.totalNonlocal -= int64(wire)
		r.nonlocalPkts--
		return r.unpark(q)
	}
	// 2. Local traffic with a direct circuit.
	if r.local[peer].len() > 0 {
		return r.popLocal(peer, budget)
	}
	// 3. Indirect: spare capacity carries other destinations via peer,
	// bounded by the peer's nonlocal backlog as of the last published slice
	// boundary (lossless stand-in for RotorLB's offer/accept).
	if net.rotorBoard.read(abs, peer) >= net.Rotor.NonlocalCapBytes {
		return nil
	}
	dst := r.nextIndirect(peer)
	if dst < 0 {
		return nil
	}
	p := r.popLocal(dst, budget)
	if p == nil {
		return nil
	}
	if r.rr = dst + 1; r.rr == r.n {
		r.rr = 0
	}
	return p
}

// nextIndirect returns the first destination in cyclic order from rr whose
// local VOQ is non-empty and which is neither the peer (served directly) nor
// this ToR, or -1 when there is none.
func (r *rotorState) nextIndirect(peer int) int {
	for _, span := range [2][2]int{{r.rr, r.n}, {0, r.rr}} {
		for dst := r.nextLocal(span[0]); dst >= 0 && dst < span[1]; dst = r.nextLocal(dst + 1) {
			if dst != peer && dst != r.tor.id {
				return dst
			}
		}
	}
	return -1
}

// nextLocal returns the lowest destination >= from with a non-empty local
// VOQ, or -1.
func (r *rotorState) nextLocal(from int) int {
	w := from >> 6
	if w >= len(r.localSet) {
		return -1
	}
	word := r.localSet[w] &^ (1<<(from&63) - 1)
	for word == 0 {
		if w++; w == len(r.localSet) {
			return -1
		}
		word = r.localSet[w]
	}
	return w<<6 + bits.TrailingZeros64(word)
}

// popLocal rebuilds and removes the head of the non-empty local VOQ dst and
// credits its bytes back, or returns nil when it does not fit the budget.
func (r *rotorState) popLocal(dst int, budget sim.Time) *Packet {
	q := &r.local[dst]
	wire := q.front().wireLen()
	if r.tor.net.serdelayUp(wire) > budget {
		return nil
	}
	p := r.unpark(q)
	if q.len() == 0 {
		r.localSet[dst>>6] &^= 1 << (dst & 63)
	}
	r.creditLocal(dst, wire)
	return p
}

// creditLocal updates accounting after a local packet of wire bytes left and
// wakes hosts blocked on credit.
func (r *rotorState) creditLocal(dst int, wire int) {
	r.localBytes[dst] -= int64(wire)
	r.localPkts--
	if r.localBytes[dst] < r.tor.net.Rotor.LocalCapBytes && len(r.waiters[dst]) > 0 {
		ws := r.waiters[dst]
		r.waiters[dst] = nil
		for _, w := range ws {
			w.fn()
		}
	}
}
