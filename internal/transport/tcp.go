package transport

import (
	"ucmp/internal/checkpoint"
	"ucmp/internal/netsim"
	"ucmp/internal/sim"
)

// tcpSender is a NewReno-style sender; with dctcp=true it runs DCTCP: ECT
// packets, per-packet ECN echoes, the g-weighted fraction estimator, and
// proportional window reduction (§7.1 pairs DCTCP with UCMP and KSP).
type tcpSender struct {
	net  *netsim.Network
	f    *netsim.Flow
	host *netsim.Host

	dctcp bool
	rto   sim.Time

	cwnd     float64 // bytes
	ssthresh float64

	sndUna int64
	sndNxt int64

	dupacks int
	recover int64 // fast-recovery high-water mark

	// DCTCP estimator state.
	alpha       float64
	ackedBytes  int64
	markedBytes int64
	windowEnd   int64

	// rtoT is the retransmission timer. sim.Timer already coalesces
	// deadline slides into a single queued event, so acking neither
	// allocates nor enqueues in steady state.
	rtoT *sim.Timer
}

const dctcpG = 1.0 / 16

func newTCPSender(n *netsim.Network, f *netsim.Flow, dctcp bool, rto sim.Time) *tcpSender {
	s := &tcpSender{
		net: n, f: f, host: n.Hosts[f.SrcHost],
		dctcp: dctcp, rto: rto,
		cwnd:     10 * MSS,
		ssthresh: 1 << 30,
		alpha:    1,
	}
	s.rtoT = s.host.Eng().NewTimerTag(sim.EventTag{Kind: checkpoint.KindTCPRTO, A: int32(f.Dense())}, s.onTimeout)
	return s
}

func (s *tcpSender) start() {
	s.pump()
}

// pump sends as much new data as the window allows.
func (s *tcpSender) pump() {
	for s.sndNxt < s.f.Size && float64(s.sndNxt-s.sndUna) < s.cwnd {
		length := int64(MSS)
		if s.sndNxt+length > s.f.Size {
			length = s.f.Size - s.sndNxt
		}
		s.emit(s.sndNxt, int(length), false)
		s.sndNxt += length
		s.f.BytesSent += length
	}
	s.armTimer()
}

// emit sends one data segment.
func (s *tcpSender) emit(seq int64, length int, rtx bool) {
	p := s.host.NewPacket()
	p.Flow = s.f
	p.Type = netsim.Data
	p.Seq = seq
	p.PayloadLen = length
	p.WireLen = length + netsim.HeaderBytes
	p.ECNCapable = s.dctcp
	_ = rtx
	s.host.Send(p)
}

// Deliver implements netsim.Endpoint for ACKs. The sender judges
// completion from its own ack state (sndUna), never from f.Finished: that
// flag is written by the receiver's lookahead domain, and reading it here
// would be a zero-lookahead cross-domain read — racy under the sharded
// engine and nondeterministic even when it happens to be visible.
func (s *tcpSender) Deliver(p *netsim.Packet) {
	if p.Type != netsim.Ack || s.sndUna >= s.f.Size {
		return
	}
	cum := p.Seq
	if cum > s.sndUna {
		acked := cum - s.sndUna
		s.sndUna = cum
		s.dupacks = 0
		s.progress(acked, p.EchoECN)
		s.armTimer()
		s.pump()
		return
	}
	// Duplicate ACK.
	if s.sndNxt > s.sndUna {
		s.dupacks++
		if s.dupacks == 3 && s.sndUna >= s.recover {
			s.fastRetransmit()
		}
	}
}

// progress applies window growth and the DCTCP estimator on new acks.
func (s *tcpSender) progress(acked int64, echoECN bool) {
	if s.dctcp {
		s.ackedBytes += acked
		if echoECN {
			s.markedBytes += acked
		}
		if s.sndUna >= s.windowEnd {
			f := 0.0
			if s.ackedBytes > 0 {
				f = float64(s.markedBytes) / float64(s.ackedBytes)
			}
			s.alpha = (1-dctcpG)*s.alpha + dctcpG*f
			if s.markedBytes > 0 {
				s.cwnd = max(s.cwnd*(1-s.alpha/2), MSS)
				s.ssthresh = s.cwnd
			}
			s.ackedBytes, s.markedBytes = 0, 0
			s.windowEnd = s.sndNxt
		}
	}
	if s.cwnd < s.ssthresh {
		s.cwnd += float64(acked) // slow start
	} else {
		s.cwnd += MSS * float64(acked) / s.cwnd // congestion avoidance
	}
}

// fastRetransmit resends the lost segment and halves the window.
func (s *tcpSender) fastRetransmit() {
	s.recover = s.sndNxt
	s.ssthresh = max(s.cwnd/2, 2*MSS)
	s.cwnd = s.ssthresh
	length := int64(MSS)
	if s.sndUna+length > s.f.Size {
		length = s.f.Size - s.sndUna
	}
	if length > 0 {
		s.emit(s.sndUna, int(length), true)
	}
	s.armTimer()
}

// armTimer (re)sets the retransmission timer, or cancels it once all data
// is acked.
func (s *tcpSender) armTimer() {
	if s.sndUna >= s.f.Size {
		s.rtoT.Cancel()
		return
	}
	s.rtoT.Reset(s.host.Now() + s.rto)
}

func (s *tcpSender) onTimeout() {
	if s.sndUna >= s.f.Size {
		return
	}
	// Go-back-N: restart from the first unacked byte.
	s.ssthresh = max(s.cwnd/2, 2*MSS)
	s.cwnd = MSS
	s.sndNxt = s.sndUna
	s.dupacks = 0
	s.recover = s.sndUna
	s.pump()
}

// tcpReceiver acks every data packet cumulatively, echoing ECN marks. It
// runs entirely in the destination host's domain.
type tcpReceiver struct {
	net  *netsim.Network
	f    *netsim.Flow
	host *netsim.Host
	ivs  *intervalSet
}

// Deliver implements netsim.Endpoint for data.
func (r *tcpReceiver) Deliver(p *netsim.Packet) {
	if p.Type != netsim.Data || p.Trimmed {
		return
	}
	newBytes := r.ivs.add(p.Seq, p.Seq+int64(p.PayloadLen))
	r.net.RecordDelivered(r.f, newBytes)
	ack := r.host.NewPacket()
	ack.Flow = r.f
	ack.Type = netsim.Ack
	ack.Seq = r.ivs.cumulative()
	ack.WireLen = netsim.HeaderBytes
	ack.EchoECN = p.ECNMarked
	r.host.Send(ack)
}
