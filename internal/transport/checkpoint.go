// Transport checkpointing: the "transport" section serializes each flow's
// endpoint state machines (sender window/ack state, receiver interval sets,
// NDP retransmit queues, RotorLB stream cursors) plus the per-host pull
// pacers. Closures and timers are never serialized — Attach rebuilds every
// endpoint cold, RestoreState refills the plain fields, and RestoreEvent
// re-binds the checkpoint's pending transport events (flow starts, RTO and
// repair occurrences, pacer drains) onto the rebuilt objects.
package transport

import (
	"fmt"
	"sort"

	"ucmp/internal/checkpoint"
	"ucmp/internal/netsim"
	"ucmp/internal/sim"
)

// Endpoint-kind bytes in the transport section. A flow records its sender
// and receiver independently so validation catches a kind mismatch between
// the checkpoint and the requesting configuration.
const (
	epNone uint8 = iota
	epTCPSender
	epTCPReceiver
	epNDPSender
	epNDPReceiver
	epRotorSender
	epRotorReceiver
)

// Snapshot writes the stack's endpoint and pacer state. MPTCP is refused:
// its subflow aggregation holds cross-flow closures this format does not
// describe.
func (s *Stack) Snapshot(w *checkpoint.Writer) error {
	if s.Kind == MPTCP {
		return fmt.Errorf("checkpoint: mptcp transport does not support checkpointing")
	}
	enc := w.Section("transport")
	enc.Str(string(s.Kind))
	nf := s.Net.NumFlows()
	enc.Len(nf)
	for dense := 0; dense < nf; dense++ {
		f := s.Net.FlowAt(dense)
		if err := encodeSender(enc, f); err != nil {
			return err
		}
		if err := encodeReceiver(enc, f); err != nil {
			return err
		}
	}
	hosts := make([]int, 0, len(s.pacers))
	for h := range s.pacers {
		hosts = append(hosts, h)
	}
	sort.Ints(hosts)
	enc.Len(len(hosts))
	for _, h := range hosts {
		p := s.pacers[h]
		enc.U32(uint32(h))
		enc.I64(int64(p.nextFree))
		pending := p.queue[p.qhead:]
		enc.Len(len(pending))
		for _, r := range pending {
			enc.I32(int32(r.f.Dense()))
		}
	}
	return nil
}

func encodeSender(enc *checkpoint.Encoder, f *netsim.Flow) error {
	switch ep := f.SenderEP.(type) {
	case nil:
		enc.U8(epNone)
	case *tcpSender:
		enc.U8(epTCPSender)
		enc.F64(ep.cwnd)
		enc.F64(ep.ssthresh)
		enc.I64(ep.sndUna)
		enc.I64(ep.sndNxt)
		enc.U32(uint32(ep.dupacks))
		enc.I64(ep.recover)
		enc.F64(ep.alpha)
		enc.I64(ep.ackedBytes)
		enc.I64(ep.markedBytes)
		enc.I64(ep.windowEnd)
	case *ndpSender:
		enc.U8(epNDPSender)
		enc.I64(ep.sndNxt)
		enc.Len(len(ep.rtxQ))
		for _, seq := range ep.rtxQ {
			enc.I64(seq)
		}
	case *rotorSender:
		enc.U8(epRotorSender)
		enc.I64(ep.next)
	default:
		return fmt.Errorf("checkpoint: flow %d has unknown sender endpoint %T", f.ID, ep)
	}
	return nil
}

func encodeReceiver(enc *checkpoint.Encoder, f *netsim.Flow) error {
	switch ep := f.ReceiverEP.(type) {
	case nil:
		enc.U8(epNone)
	case *tcpReceiver:
		enc.U8(epTCPReceiver)
		encodeIntervals(enc, ep.ivs)
	case *ndpReceiver:
		enc.U8(epNDPReceiver)
		encodeIntervals(enc, ep.ivs)
	case *rotorReceiver:
		enc.U8(epRotorReceiver)
	default:
		return fmt.Errorf("checkpoint: flow %d has unknown receiver endpoint %T", f.ID, ep)
	}
	return nil
}

func encodeIntervals(enc *checkpoint.Encoder, s *intervalSet) {
	enc.Len(len(s.ivs))
	for _, iv := range s.ivs {
		enc.I64(iv[0])
		enc.I64(iv[1])
	}
}

func decodeIntervals(dec *checkpoint.Decoder, s *intervalSet) {
	n := dec.Len()
	s.ivs = s.ivs[:0]
	for i := 0; i < n; i++ {
		a := dec.I64()
		b := dec.I64()
		s.ivs = append(s.ivs, [2]int64{a, b})
	}
}

// RestoreState refills endpoint and pacer fields from the "transport"
// section. Every flow must already be Attached (same workload, same order)
// so the endpoints exist with the right types.
func (s *Stack) RestoreState(f *checkpoint.File) error {
	if s.Kind == MPTCP {
		return fmt.Errorf("checkpoint: mptcp transport does not support restore")
	}
	dec, err := f.Section("transport")
	if err != nil {
		return err
	}
	if kind := dec.Str(); kind != string(s.Kind) {
		return fmt.Errorf("checkpoint: transport kind %q, config wants %q", kind, s.Kind)
	}
	nf := dec.Len()
	if nf != s.Net.NumFlows() {
		return fmt.Errorf("checkpoint: transport has %d flows, network has %d", nf, s.Net.NumFlows())
	}
	for dense := 0; dense < nf; dense++ {
		fl := s.Net.FlowAt(dense)
		if err := decodeSender(dec, fl); err != nil {
			return err
		}
		if err := decodeReceiver(dec, fl); err != nil {
			return err
		}
	}
	np := dec.Len()
	for i := 0; i < np; i++ {
		host := int(dec.U32())
		if host < 0 || host >= len(s.Net.Hosts) {
			return fmt.Errorf("checkpoint: pacer references unknown host %d", host)
		}
		p := s.pacer(host)
		p.nextFree = sim.Time(dec.I64())
		nq := dec.Len()
		for j := 0; j < nq; j++ {
			fl := s.Net.FlowAt(int(dec.I32()))
			if fl == nil {
				return fmt.Errorf("checkpoint: pacer for host %d queues unknown flow", host)
			}
			r, ok := fl.ReceiverEP.(*ndpReceiver)
			if !ok {
				return fmt.Errorf("checkpoint: pacer for host %d queues non-NDP flow %d", host, fl.ID)
			}
			p.queue = append(p.queue, r)
		}
	}
	return dec.Err()
}

func decodeSender(dec *checkpoint.Decoder, f *netsim.Flow) error {
	kind := dec.U8()
	switch kind {
	case epNone:
		if f.SenderEP != nil {
			return fmt.Errorf("checkpoint: flow %d has a sender, checkpoint has none", f.ID)
		}
	case epTCPSender:
		ep, ok := f.SenderEP.(*tcpSender)
		if !ok {
			return fmt.Errorf("checkpoint: flow %d sender is %T, checkpoint has tcp", f.ID, f.SenderEP)
		}
		ep.cwnd = dec.F64()
		ep.ssthresh = dec.F64()
		ep.sndUna = dec.I64()
		ep.sndNxt = dec.I64()
		ep.dupacks = int(dec.U32())
		ep.recover = dec.I64()
		ep.alpha = dec.F64()
		ep.ackedBytes = dec.I64()
		ep.markedBytes = dec.I64()
		ep.windowEnd = dec.I64()
	case epNDPSender:
		ep, ok := f.SenderEP.(*ndpSender)
		if !ok {
			return fmt.Errorf("checkpoint: flow %d sender is %T, checkpoint has ndp", f.ID, f.SenderEP)
		}
		ep.sndNxt = dec.I64()
		n := dec.Len()
		ep.rtxQ = ep.rtxQ[:0]
		for i := 0; i < n; i++ {
			seq := dec.I64()
			ep.rtxQ = append(ep.rtxQ, seq)
			ep.inRtx[seq] = true
		}
	case epRotorSender:
		ep, ok := f.SenderEP.(*rotorSender)
		if !ok {
			return fmt.Errorf("checkpoint: flow %d sender is %T, checkpoint has rotor", f.ID, f.SenderEP)
		}
		// The cursor is what the sender has handed its NIC; the unsent part
		// of that, if any, is the run in netsim's NIC record.
		ep.next = dec.I64()
		if dec.Err() == nil && (ep.next < 0 || ep.next > f.Size) {
			return fmt.Errorf("checkpoint: flow %d rotor cursor %d outside its %d bytes", f.ID, ep.next, f.Size)
		}
	default:
		return fmt.Errorf("checkpoint: flow %d has unknown sender kind %d", f.ID, kind)
	}
	return nil
}

func decodeReceiver(dec *checkpoint.Decoder, f *netsim.Flow) error {
	kind := dec.U8()
	switch kind {
	case epNone:
		if f.ReceiverEP != nil {
			return fmt.Errorf("checkpoint: flow %d has a receiver, checkpoint has none", f.ID)
		}
	case epTCPReceiver:
		ep, ok := f.ReceiverEP.(*tcpReceiver)
		if !ok {
			return fmt.Errorf("checkpoint: flow %d receiver is %T, checkpoint has tcp", f.ID, f.ReceiverEP)
		}
		decodeIntervals(dec, ep.ivs)
	case epNDPReceiver:
		ep, ok := f.ReceiverEP.(*ndpReceiver)
		if !ok {
			return fmt.Errorf("checkpoint: flow %d receiver is %T, checkpoint has ndp", f.ID, f.ReceiverEP)
		}
		decodeIntervals(dec, ep.ivs)
	case epRotorReceiver:
		if _, ok := f.ReceiverEP.(*rotorReceiver); !ok {
			return fmt.Errorf("checkpoint: flow %d receiver is %T, checkpoint has rotor", f.ID, f.ReceiverEP)
		}
	default:
		return fmt.Errorf("checkpoint: flow %d has unknown receiver kind %d", f.ID, kind)
	}
	return nil
}

// RestoreEvent is the netsim.RestoreExt handler for transport-owned event
// kinds: it re-binds the checkpoint's pending flow starts and timer
// occurrences onto the freshly Attached endpoints.
func (s *Stack) RestoreEvent(eng *sim.Engine, at sim.Time, tag sim.EventTag, timer, armed bool, deadline sim.Time) error {
	flow := func() (*netsim.Flow, error) {
		f := s.Net.FlowAt(int(tag.A))
		if f == nil {
			return nil, fmt.Errorf("checkpoint: event kind %d references unknown flow %d", tag.Kind, tag.A)
		}
		return f, nil
	}
	switch tag.Kind {
	case checkpoint.KindFlowStart:
		f, err := flow()
		if err != nil {
			return err
		}
		if timer {
			return fmt.Errorf("checkpoint: flow-start event is a timer occurrence")
		}
		if s.Net.Hosts[f.SrcHost].Eng() != eng {
			return fmt.Errorf("checkpoint: flow %d start on foreign engine", f.ID)
		}
		var start func()
		switch ep := f.SenderEP.(type) {
		case *tcpSender:
			start = ep.start
		case *ndpSender:
			start = ep.start
		case *rotorSender:
			start = ep.start
		default:
			return fmt.Errorf("checkpoint: flow %d start with sender %T", f.ID, f.SenderEP)
		}
		eng.AtTag(at, tag, start)
	case checkpoint.KindRcvStart:
		f, err := flow()
		if err != nil {
			return err
		}
		if timer {
			return fmt.Errorf("checkpoint: receiver-start event is a timer occurrence")
		}
		rcv, ok := f.ReceiverEP.(*ndpReceiver)
		if !ok {
			return fmt.Errorf("checkpoint: flow %d receiver start with receiver %T", f.ID, f.ReceiverEP)
		}
		if s.Net.Hosts[f.DstHost].Eng() != eng {
			return fmt.Errorf("checkpoint: flow %d receiver start on foreign engine", f.ID)
		}
		eng.AtTag(at, tag, rcv.armRepair)
	case checkpoint.KindTCPRTO:
		f, err := flow()
		if err != nil {
			return err
		}
		ep, ok := f.SenderEP.(*tcpSender)
		if !ok || !timer {
			return fmt.Errorf("checkpoint: bad rto occurrence for flow %d (%T)", f.ID, f.SenderEP)
		}
		ep.rtoT.RestoreOccurrence(at, deadline, armed)
	case checkpoint.KindNDPRepair:
		f, err := flow()
		if err != nil {
			return err
		}
		ep, ok := f.ReceiverEP.(*ndpReceiver)
		if !ok || !timer {
			return fmt.Errorf("checkpoint: bad repair occurrence for flow %d (%T)", f.ID, f.ReceiverEP)
		}
		ep.repair.RestoreOccurrence(at, deadline, armed)
	case checkpoint.KindPacer:
		host := int(tag.A)
		if host < 0 || host >= len(s.Net.Hosts) || !timer {
			return fmt.Errorf("checkpoint: bad pacer occurrence for host %d", tag.A)
		}
		s.pacer(host).timer.RestoreOccurrence(at, deadline, armed)
	default:
		return fmt.Errorf("checkpoint: transport cannot restore event kind %d", tag.Kind)
	}
	return nil
}

// ReparkRotorWaiters re-registers the checkpoint's parked RotorLB credit
// callbacks (netsim records which flows were waiting; only the transport
// holds the sender closures). Must run after RestoreFrom.
func (s *Stack) ReparkRotorWaiters() error {
	for _, wt := range s.Net.RestoredRotorWaiters() {
		ep, ok := wt.Flow.SenderEP.(*rotorSender)
		if !ok {
			return fmt.Errorf("checkpoint: rotor waiter for flow %d with sender %T", wt.Flow.ID, wt.Flow.SenderEP)
		}
		s.Net.ToRs[wt.Tor].RotorNotify(wt.Dst, wt.Flow, ep.pushFn)
	}
	return nil
}
