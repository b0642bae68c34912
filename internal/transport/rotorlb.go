package transport

import (
	"ucmp/internal/netsim"
)

// rotorSender is the host side of RotorLB (§7.1): it hands its flow to the
// NIC once its ToR's local VOQ for the destination rack has credit, blocking
// on the credit backpressure the ToR exposes until then. No retransmission
// machinery: the in-fabric path is lossless by construction (bounded
// indirection, unbounded VOQs).
type rotorSender struct {
	net  *netsim.Network
	f    *netsim.Flow
	host *netsim.Host
	tor  *netsim.ToR

	next   int64
	dstToR int
	pushFn func() // push pre-bound for credit-notify parking
}

func newRotorSender(n *netsim.Network, f *netsim.Flow) *rotorSender {
	host := n.Hosts[f.SrcHost]
	s := &rotorSender{
		net: n, f: f, host: host,
		tor:    n.ToRs[host.ToR()],
		dstToR: n.HostToR(f.DstHost),
	}
	s.pushFn = s.push
	return s
}

func (s *rotorSender) start() { s.push() }

// push parks on a credit notify, or hands the NIC everything still unsent.
// Credit is a reading of the ToR's VOQ, which nothing this call does can
// change (segments reach the ToR through later events), so a flow with credit
// sends all it has: as one run, which the NIC turns into segments as it
// serves them.
func (s *rotorSender) push() {
	if s.next >= s.f.Size {
		return
	}
	if !s.tor.RotorHasCredit(s.dstToR) {
		s.tor.RotorNotify(s.dstToR, s.f, s.pushFn)
		return
	}
	s.host.SendRun(s.f, s.next, s.f.Size, MSS)
	s.f.BytesSent += s.f.Size - s.next
	s.next = s.f.Size
}

// Deliver implements netsim.Endpoint; RotorLB senders receive no control
// traffic.
func (s *rotorSender) Deliver(p *netsim.Packet) {}

// rotorReceiver counts arriving payload; RotorLB never duplicates bytes,
// so every arrival is new.
type rotorReceiver struct {
	net *netsim.Network
	f   *netsim.Flow
}

// Deliver implements netsim.Endpoint.
func (r *rotorReceiver) Deliver(p *netsim.Packet) {
	if p.Type != netsim.Data || p.Trimmed {
		return
	}
	r.net.RecordDelivered(r.f, int64(p.PayloadLen))
}
