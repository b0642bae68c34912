package core

import (
	"slices"

	"ucmp/internal/topo"
)

// Calculator performs UCMP offline path calculation (§4): n-hop
// minimum-latency paths for every (src, dst, t_start) up to Q(h_max) hops.
type Calculator struct {
	F *topo.Fabric
	// HMax is the hop-count bound Q(h_max) from Appendix B.
	HMax int
	// HSlice caps the number of hops a packet can take within one slice.
	HSlice int
	// MaxParallel caps how many tied (parallel) solutions are retained per
	// hop count (§4.3, property 2). At least 1.
	MaxParallel int

	Bound HmaxBound

	// peers is the schedule's flat peer table (topo.Schedule.PeerTable) with
	// each (cyclic slice, ToR) run of d circuit ends sorted ascending: all
	// the DP's extension step ever looks at, in the order it wants them.
	peers []int32
}

// DefaultMaxParallel is the parallel-path retention NewCalculator starts
// with; fabriccache keys normalize an unset cap to this value.
const DefaultMaxParallel = 4

// NewCalculator derives Q(h_max) from the fabric per Appendix B and returns
// a calculator with default parallel retention of DefaultMaxParallel paths.
func NewCalculator(f *topo.Fabric) *Calculator {
	b := BoundHmax(f.Config, f.Sched)
	peers, d := f.Sched.PeerTable(), f.Sched.D
	for at := 0; at < len(peers); at += d {
		slices.Sort(peers[at : at+d])
	}
	return &Calculator{F: f, HMax: b.Q, HSlice: b.HSlice, MaxParallel: DefaultMaxParallel, Bound: b,
		peers: peers}
}
