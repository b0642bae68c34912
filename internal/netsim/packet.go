// Package netsim is a from-scratch packet-level RDCN simulator: the
// substitute for the htsim simulator used by the paper (§7.1). It models
// hosts, ToR switches with per-time-slice calendar queues on circuit-facing
// uplinks (§6.2), drop-tail/ECN and NDP trimming queues, per-packet
// serialization and propagation, circuit gating with reconfiguration
// delays, rerouting of packets that miss their planned slice (§6.3), and a
// RotorLB-style hop-by-hop mode for VLB-class traffic.
package netsim

import (
	"ucmp/internal/sim"
)

// PacketType distinguishes data from transport control traffic. Control
// packets ride the high-priority band of every queue.
type PacketType uint8

const (
	Data PacketType = iota
	Ack
	Nack
	Pull
)

func (t PacketType) String() string {
	switch t {
	case Data:
		return "data"
	case Ack:
		return "ack"
	case Nack:
		return "nack"
	case Pull:
		return "pull"
	default:
		return "?"
	}
}

// HeaderBytes is the on-wire overhead per packet (Ethernet+IP+TCP-ish plus
// the SSRR source-route option of §6.2).
const HeaderBytes = 64

// PlannedHop is one entry of a packet's source route: the next ToR and the
// absolute time slice in which the circuit to it is up (§6.2's
// <ToR, egress port, departure slice> tuple; the egress port is derived
// from the schedule at enqueue time).
type PlannedHop struct {
	To       int
	AbsSlice int64
}

// Packet is a simulated packet. Packets are passed by pointer and never
// shared between two queues at once. Over a million are live at the peak of
// a paper-scale rotor run, so the one-byte fields sit together in one word
// at the end: spread between the wider fields they each cost eight bytes of
// padding and pushed the struct from the 160 B allocation class into 192 B
// (pinned by TestPacketSize).
type Packet struct {
	Flow *Flow

	// Seq is the byte offset of the payload (data) or the cumulative ack /
	// nacked offset (control). PayloadLen is the payload size represented;
	// WireLen is what occupies the wire (headers included, possibly
	// trimmed).
	Seq        int64
	PayloadLen int
	WireLen    int

	// Bucket is the flow-aging bucket stamped by the host (DSCP, §6.1).
	Bucket int

	SrcHost, DstHost int
	SrcToR, DstToR   int

	// Route is the source route; RouteIdx points at the next hop to take.
	Route    []PlannedHop
	RouteIdx int
	// Rerouted counts recirculations at the CURRENT ToR (§6.3: "packets
	// that have been recirculated more than 5 times on a ToR are
	// dropped"); it resets when the packet departs over a circuit.
	Rerouted int
	// TorHops counts ToR-to-ToR hops actually traversed, for bandwidth
	// efficiency accounting (§7.3).
	TorHops int

	// SentAt is when the packet (this transmission) left the host.
	SentAt sim.Time

	// FaultAt is the instant this packet hit a dead element (a calendar
	// expiry on a failed link or ToR); zero means it never did. The ToR
	// clears it when the replacement route is enqueued, recording the wait
	// in the Counters.RerouteWait histogram.
	FaultAt sim.Time

	// linkSrc/linkSeq stamp a ToR-to-ToR transmission with its sending ToR
	// and that ToR's monotone send counter. Peer arrivals sharing one
	// instant at one ToR are processed in (linkSrc, linkSeq) order — the
	// canonical tie-break that makes serial and sharded runs bit-identical
	// (see ToR.flushIngress).
	linkSeq uint64
	linkSrc int32

	Type PacketType

	ECNCapable bool
	ECNMarked  bool
	// EchoECN is set on ACKs to echo the data packet's mark (DCTCP).
	EchoECN bool
	Trimmed bool

	// WasRerouted marks packets recirculated at least once, for the
	// fraction the paper reports (§7.4).
	WasRerouted bool

	// RecoveredVia records how the router's §5.3 online recovery resolved
	// this packet's latest route plan; the zero value (RecoveryPrimary)
	// means the wanted path was healthy or no fault view is installed.
	// Routers that implement recovery stamp it on every plan.
	RecoveredVia RecoveryClass

	// released marks a packet returned to its Network's pool; the poison
	// debug mode asserts it never re-enters the fabric (see pool.go).
	released bool
}

// MaxReroutes is the recirculation limit of §6.3.
const MaxReroutes = 5

// RecoveryClass is the outcome of one §5.3 route resolution under a fault
// view — a packet's plan, or an affected path in the offline Fig 12a–c
// breakdown (routing.Classify), both decided by the router's one policy:
// when the wanted (primary) path is
// unhealthy, the router prefers a healthy same-length group path, then a
// shorter one, then a longer one, then a 2-hop backup path; RecoveryNone
// means nothing healthy remained and the plan failed.
type RecoveryClass uint8

const (
	RecoveryPrimary RecoveryClass = iota
	RecoverySameLength
	RecoveryShorter
	RecoveryLonger
	RecoveryBackup
	RecoveryNone
)

func (c RecoveryClass) String() string {
	switch c {
	case RecoveryPrimary:
		return "primary"
	case RecoverySameLength:
		return "same-length"
	case RecoveryShorter:
		return "shorter"
	case RecoveryLonger:
		return "longer"
	case RecoveryBackup:
		return "backup"
	case RecoveryNone:
		return "none"
	default:
		return "?"
	}
}

// CurrentHop returns the pending hop of the source route, or false when the
// route is exhausted.
func (p *Packet) CurrentHop() (PlannedHop, bool) {
	if p.RouteIdx >= len(p.Route) {
		return PlannedHop{}, false
	}
	return p.Route[p.RouteIdx], true
}

// IsControl reports whether the packet rides the priority band.
func (p *Packet) IsControl() bool { return p.Type != Data || p.Trimmed }
