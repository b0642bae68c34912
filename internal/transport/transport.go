// Package transport implements the transport protocols the paper pairs
// with each routing scheme (§7.1): DCTCP (ECN-based congestion control),
// NDP (receiver-driven with packet trimming), the RotorLB host side for
// VLB-class traffic, and a plain Reno-style TCP for the testbed
// experiments. All are packet-level state machines over netsim.
package transport

import (
	"fmt"
	"slices"

	"ucmp/internal/checkpoint"
	"ucmp/internal/netsim"
	"ucmp/internal/sim"
)

// MSS is the payload carried by an MTU packet.
const MSS = 1500 - netsim.HeaderBytes

// Kind selects a protocol.
type Kind string

const (
	DCTCP Kind = "dctcp"
	NDP   Kind = "ndp"
	TCP   Kind = "tcp"
	Rotor Kind = "rotor"
)

// Kinds lists the protocols a Stack runs.
var Kinds = []Kind{DCTCP, NDP, TCP, Rotor, MPTCP}

// Valid reports whether k is one of Kinds.
func Valid(k Kind) bool { return slices.Contains(Kinds, k) }

// QueueSpec returns the paper's switch queue configuration for a protocol
// (§7.1): DCTCP 300 pkts + ECN@65, NDP 80 pkts with trimming.
func QueueSpec(k Kind) netsim.QueueSpec {
	switch k {
	case NDP:
		return netsim.NDPQueues()
	case DCTCP, MPTCP:
		return netsim.DCTCPQueues()
	default:
		return netsim.QueueSpec{MaxDataPackets: 300}
	}
}

// Stack creates transport endpoints for flows on one network. The same
// stack serves rotor-class flows (VLB machinery) with the RotorLB host
// transport regardless of the configured Kind, mirroring the paper's
// pairing (§7.1, §7.3).
type Stack struct {
	Net  *netsim.Network
	Kind Kind
	// RTO is the retransmission timeout for DCTCP/TCP; zero selects
	// max(1 ms, 3 cycles).
	RTO sim.Time

	pacers map[int]*pullPacer
}

// NewStack builds a stack.
func NewStack(n *netsim.Network, kind Kind) *Stack {
	return &Stack{Net: n, Kind: kind, pacers: make(map[int]*pullPacer)}
}

// Attach registers the flow and builds its endpoints without scheduling
// anything — the restore path uses it to recreate every closure-bearing
// endpoint before replaying the checkpoint's pending events. It returns the
// start closures (rcvStart may be nil) for Launch to schedule.
func (s *Stack) Attach(f *netsim.Flow) (start, rcvStart func()) {
	s.Net.RegisterFlow(f) // sets RotorClass from the router
	kind := s.Kind
	if f.RotorClass {
		kind = Rotor
	}
	switch kind {
	case MPTCP:
		start = s.launchMPTCP(f)
	case Rotor:
		snd := newRotorSender(s.Net, f)
		rcv := &rotorReceiver{net: s.Net, f: f}
		f.SenderEP, f.ReceiverEP = snd, rcv
		start = snd.start
	case NDP:
		snd := newNDPSender(s.Net, f)
		rcv := newNDPReceiver(s, f)
		f.SenderEP, f.ReceiverEP = snd, rcv
		start = snd.start
		rcvStart = rcv.armRepair
	case DCTCP, TCP:
		snd := newTCPSender(s.Net, f, kind == DCTCP, s.rto())
		rcv := &tcpReceiver{net: s.Net, f: f, host: s.Net.Hosts[f.DstHost], ivs: &intervalSet{}}
		f.SenderEP, f.ReceiverEP = snd, rcv
		start = snd.start
	default:
		panic(fmt.Sprintf("transport: unknown kind %q", kind))
	}
	return start, rcvStart
}

// Launch registers the flow, attaches endpoints, and schedules its start.
func (s *Stack) Launch(f *netsim.Flow) {
	// start runs on the source host's engine; rcvStart (when set) runs on
	// the destination host's engine at the same instant, so each endpoint's
	// state — including its timers — lives entirely in its own host's
	// lookahead domain. In serial mode both engines are the network engine
	// and the two events fire back to back, matching the old combined start.
	start, rcvStart := s.Attach(f)
	src := s.Net.Hosts[f.SrcHost]
	at := f.Arrival
	if now := src.Now(); at < now {
		at = now
	}
	dense := int32(f.Dense())
	src.Eng().AtTag(at, sim.EventTag{Kind: checkpoint.KindFlowStart, A: dense}, start)
	if rcvStart != nil {
		dst := s.Net.Hosts[f.DstHost]
		rcvAt := at
		if now := dst.Now(); rcvAt < now {
			rcvAt = now
		}
		dst.Eng().AtTag(rcvAt, sim.EventTag{Kind: checkpoint.KindRcvStart, A: dense}, rcvStart)
	}
}

func (s *Stack) rto() sim.Time {
	if s.RTO > 0 {
		return s.RTO
	}
	rto := 3 * s.Net.F.CycleDuration()
	if rto < sim.Millisecond {
		rto = sim.Millisecond
	}
	return rto
}

// intervalSet tracks received byte ranges for dedup and cumulative acking.
type intervalSet struct {
	// ivs are disjoint, sorted [start, end) ranges.
	ivs [][2]int64
}

// add inserts [start, end) and returns how many bytes were new.
func (s *intervalSet) add(start, end int64) int64 {
	if end <= start {
		return 0
	}
	// Fast paths for the cases that dominate a healthy flow — first packet,
	// in-order tail extension, and duplicate of the tail — none of which
	// need the merge scan or its allocation.
	if n := len(s.ivs); n == 0 {
		s.ivs = append(s.ivs, [2]int64{start, end})
		return end - start
	} else if last := &s.ivs[n-1]; start >= last[0] {
		if end <= last[1] {
			return 0 // fully contained in the tail interval
		}
		if start <= last[1] {
			nb := end - last[1]
			last[1] = end
			return nb
		}
		s.ivs = append(s.ivs, [2]int64{start, end})
		return end - start
	}
	newBytes := end - start
	ns, ne := start, end
	out := make([][2]int64, 0, len(s.ivs)+1)
	placed := false
	for _, iv := range s.ivs {
		switch {
		case iv[1] < ns:
			out = append(out, iv)
		case iv[0] > ne:
			if !placed {
				out = append(out, [2]int64{ns, ne})
				placed = true
			}
			out = append(out, iv)
		default:
			// Overlapping or adjacent: absorb into the merged range and
			// discount the overlap with the original [start, end).
			if os, oe := max64(iv[0], start), min64(iv[1], end); oe > os {
				newBytes -= oe - os
			}
			if iv[0] < ns {
				ns = iv[0]
			}
			if iv[1] > ne {
				ne = iv[1]
			}
		}
	}
	if !placed {
		out = append(out, [2]int64{ns, ne})
	}
	s.ivs = out
	return newBytes
}

// cumulative returns the first missing byte offset.
func (s *intervalSet) cumulative() int64 {
	if len(s.ivs) == 0 || s.ivs[0][0] > 0 {
		return 0
	}
	return s.ivs[0][1]
}

// holes returns up to `limit` missing [start,end) ranges below `size`,
// including the tail beyond the highest received byte.
func (s *intervalSet) holes(limit int, size int64) [][2]int64 {
	var out [][2]int64
	cursor := int64(0)
	for _, iv := range s.ivs {
		if iv[0] > cursor {
			out = append(out, [2]int64{cursor, iv[0]})
			if len(out) == limit {
				return out
			}
		}
		cursor = iv[1]
	}
	if cursor < size {
		out = append(out, [2]int64{cursor, size})
	}
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
