package netsim

import (
	"fmt"

	"ucmp/internal/sim"
)

// Host is an end host: a NIC port toward its ToR and the dispatch point for
// transport endpoints. A host lives in its ToR's lookahead domain, so its
// clock, counters, and packet pool are the domain's.
type Host struct {
	net  *Network
	dom  *domain
	id   int
	tor  int
	port *hostPort

	// recvFn is receive pre-bound for sim.At1, so downlink transmissions
	// schedule arrivals without a per-packet closure.
	recvFn func(any)
}

func newHost(n *Network, id int, dom *domain) *Host {
	tor := id / n.F.HostsPerToR
	h := &Host{
		net:  n,
		dom:  dom,
		id:   id,
		tor:  tor,
		port: &hostPort{net: n, dom: dom, host: id, tor: tor},
	}
	h.port.pumpFn = h.port.pump
	h.recvFn = func(a any) { h.receive(a.(*Packet)) }
	return h
}

// ID returns the global host index.
func (h *Host) ID() int { return h.id }

// ToR returns the index of the ToR this host attaches to.
func (h *Host) ToR() int { return h.tor }

// Eng returns the engine of the host's lookahead domain. Transport
// endpoints schedule their timers and pacing events here, so a sharded run
// keeps every flow's sender state on the sender's domain and every
// receiver's state on the receiver's.
func (h *Host) Eng() *sim.Engine { return h.dom.eng }

// Now returns the host's domain-local clock.
func (h *Host) Now() sim.Time { return h.dom.eng.Now() }

// NewPacket allocates from the host's domain pool; transports must use it
// (not Network.NewPacket) so sharded allocation stays lock-free.
func (h *Host) NewPacket() *Packet { return h.dom.newPacket() }

// Send injects a packet into the fabric through the host NIC. Addressing
// fields are filled from the flow.
func (h *Host) Send(p *Packet) {
	p.assertLive("Host.Send")
	f := p.Flow
	if p.SrcHost == 0 && p.DstHost == 0 && f != nil {
		// Fill addressing by direction: the sender host emits toward the
		// receiver, anyone else (the receiver) emits control back.
		if h.id == f.SrcHost {
			p.SrcHost, p.DstHost = f.SrcHost, f.DstHost
		} else {
			p.SrcHost, p.DstHost = f.DstHost, f.SrcHost
		}
	}
	h.net.seal(p, h.dom.eng.Now())
	if p.Type == Data {
		h.dom.ctr.DataBytesSent += int64(p.PayloadLen)
		h.dom.ctr.DataInjected++
	}
	h.port.enqueue(p)
}

// seal finishes a packet leaving a host at sentAt, once its hosts are set:
// ToR addressing, the injection instant, and the stamper.
func (n *Network) seal(p *Packet, sentAt sim.Time) {
	p.SrcToR = n.HostToR(p.SrcHost)
	p.DstToR = n.HostToR(p.DstHost)
	p.SentAt = sentAt
	if n.Stamper != nil {
		n.Stamper(p)
	}
}

// SendRun injects payload bytes [from, to) of f, a registered flow this host
// sources, as first-transmission data segments of at most mss bytes. It is
// what calling Send once per segment in one instant does — the whole range
// is counted as injected (DataBytesSent, DataInjected) and every segment
// carries this instant as SentAt — except that only the first segment is
// built now. The rest park as a run on the flow and the NIC builds each one
// when its round-robin reaches it, so injecting a range costs the same
// whatever its length. The stamper sees each segment with Flow.BytesSent
// equal to the segment's Seq, the value a sender that has sent every earlier
// byte once would show it.
//
// The first segment is a real packet because it decides the flow's place in
// the round-robin: an idle NIC transmits it at once, retires the flow from
// the ring, and the second segment re-appends it. A run that joined the ring
// in its place would advance the scan position where the packet retires the
// slot, and the fair-queueing order would drift from the per-packet one.
func (h *Host) SendRun(f *Flow, from, to int64, mss int) {
	if f.dense < 0 || f.SrcHost != h.id {
		panic(fmt.Sprintf("netsim: SendRun of flow %d on host %d, which does not source it", f.ID, h.id))
	}
	if from < 0 || from >= to || to > f.Size || mss <= 0 {
		panic(fmt.Sprintf("netsim: SendRun of flow %d (size %d) with range [%d, %d) mss %d", f.ID, f.Size, from, to, mss))
	}
	run := nicRun{next: from, end: to, mss: mss, sentAt: h.dom.eng.Now()}
	h.dom.ctr.DataBytesSent += to - from
	h.dom.ctr.DataInjected += run.segments()
	hp := h.port
	hp.enqueue(hp.segment(f, &run))
	if run.pending() {
		if f.nic.len() == 0 {
			// The first segment is already on the wire and the flow off the
			// ring: the second segment's enqueue would have put it back.
			hp.ring = append(hp.ring, f)
		}
		f.run = run
		hp.wake()
	}
}

// receive dispatches an arriving packet to the flow's transport endpoint,
// then recycles it: endpoints consume packets synchronously inside Deliver
// and never retain the pointer.
func (h *Host) receive(p *Packet) {
	p.assertLive("Host.receive")
	if p.Type == Data {
		if p.Trimmed {
			h.dom.ctr.TrimmedDelivered++
		} else {
			h.dom.ctr.DataDelivered++
		}
	}
	if f := p.Flow; f != nil {
		if p.DstHost == f.SrcHost {
			if f.SenderEP != nil {
				f.SenderEP.Deliver(p)
			}
		} else if f.ReceiverEP != nil {
			f.ReceiverEP.Deliver(p)
		}
	}
	h.dom.release(p)
}
