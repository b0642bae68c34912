package netsim

import (
	"ucmp/internal/sim"
)

// Flow is one transport-level flow: Size bytes from SrcHost to DstHost,
// arriving (becoming ready to send) at Arrival.
type Flow struct {
	ID       int64
	SrcHost  int
	DstHost  int
	Size     int64
	Arrival  sim.Time
	Priority bool // testbed foreground traffic marker

	// Hash is the 5-tuple hash used for ECMP-style tie breaking (§5.1).
	Hash uint64

	// Progress, maintained by the transport:
	BytesSent      int64 // first transmissions only (drives flow aging)
	BytesDelivered int64 // distinct payload bytes at the receiver
	Finished       bool
	FinishedAt     sim.Time

	// RotorClass marks flows carried by the RotorLB hop-by-hop machinery
	// (VLB, Opera >15MB, UCMP latency-relaxed long flows).
	RotorClass bool

	// Child marks MPTCP subflows: they carry a stripe of a parent flow and
	// are excluded from flow-level metrics.
	Child bool

	// SenderEP and ReceiverEP are the transport state machines; the host
	// dispatches arriving packets to one of them by direction.
	SenderEP   Endpoint
	ReceiverEP Endpoint

	// dense is the small contiguous index RegisterFlow assigns (position in
	// registration order): the flow's identity inside checkpoint files. -1
	// until registered.
	dense int
	// srcToR and dstToR are the ToRs of SrcHost and DstHost in the network the
	// flow is registered with, worked out once there: a VOQ record takes its
	// packet's ToR addresses from them.
	srcToR, dstToR int

	// nic and run are the flow's queue in its source host's NIC: built
	// packets first, then at most one run of segments still to be built.
	// Only SrcHost ever enqueues the flow's data, so the one queue lives here
	// rather than in a per-host table indexed by flow; hostPort.ring lists
	// the flows whose queue is non-empty.
	nic fifo
	run nicRun
}

// nicRun is the unbuilt tail of a byte range handed to the NIC by
// Host.SendRun: payload bytes [next, end) in segments of at most mss, all
// accounted and timestamped (sentAt) when the range was injected. The NIC
// builds each segment when the round-robin reaches it, so a parked flow costs
// this record whatever its size. The zero value is "no run".
type nicRun struct {
	next, end int64
	mss       int
	sentAt    sim.Time
}

func (r *nicRun) pending() bool { return r.next < r.end }

// segments returns how many packets the run still stands for.
func (r *nicRun) segments() int64 {
	if !r.pending() {
		return 0
	}
	return (r.end - r.next + int64(r.mss) - 1) / int64(r.mss)
}

// FCT returns the flow completion time, valid once Finished.
func (f *Flow) FCT() sim.Time { return f.FinishedAt - f.Arrival }

// Dense returns the dense index assigned at registration (-1 before). It is
// the flow's identity inside checkpoint files: dense indices are assigned in
// registration order, which the deterministic workload regeneration on a
// resume reproduces exactly.
func (f *Flow) Dense() int { return f.dense }

// hashID derives a deterministic 64-bit hash from a flow identity
// (splitmix64 over the ID and endpoints), standing in for the 5-tuple hash.
func hashID(id int64, src, dst int) uint64 {
	x := uint64(id)*0x9E3779B97F4A7C15 ^ uint64(src)<<32 ^ uint64(dst)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// NewFlow builds a flow with its hash assigned.
func NewFlow(id int64, src, dst int, size int64, arrival sim.Time) *Flow {
	return &Flow{
		ID: id, SrcHost: src, DstHost: dst, Size: size, Arrival: arrival,
		Hash: hashID(id, src, dst), FinishedAt: -1, dense: -1,
	}
}
