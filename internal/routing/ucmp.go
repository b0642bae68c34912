package routing

import (
	"sync"

	"ucmp/internal/core"
	"ucmp/internal/netsim"
	"ucmp/internal/sim"
)

// UCMP is the uniform-cost multi-path router: offline-computed UCMP groups,
// online path assignment by flow-aging bucket (§5), source routing (§6.2).
type UCMP struct {
	PS   *core.PathSet
	Ager *core.FlowAger

	// Relax enables latency relaxation (§4.3): flows at least RelaxCutoff
	// bytes ride the RotorLB machinery over the full relaxed 2-hop path
	// set, as the paper does for the data mining workload (§7.3, which
	// notes the htsim RotorLB implementation requires the full VLB path
	// set).
	Relax       bool
	RelaxCutoff int64

	// ForceBucket, when >= 0, overrides the packet's bucket tag for every
	// route decision. It ablates the uniform-cost policy: 0 pins all
	// traffic to the globally minimum-latency path (pure latency
	// minimization), a large value pins it to the fewest-hop path (pure
	// bandwidth minimization, typically the direct circuit).
	ForceBucket int

	// Health, when non-nil, is the time-indexed fault view (§5.3 online
	// recovery): when the wanted path is unhealthy at plan time, assignment
	// prefers a healthy same-length group path, then a shorter one, then a
	// longer one, then a 2-hop backup (resolve, the policy Classify scores
	// offline) and stamps the outcome on Packet.RecoveredVia.
	Health HealthView

	// Backlog and CongestionThreshold enable the §10 congestion-aware
	// extension (see congestion.go): when the primary candidate's
	// first-hop calendar queue held at least CongestionThreshold data
	// packets as of the last slice boundary, assignment steers to the
	// least-congested path within one bucket of the minimum uniform cost.
	// Backlog is usually netsim.Network.CongestionBacklog, the
	// slice-boundary board view (stale by one slice, identical in serial
	// and sharded runs); now is the plan instant, which anchors the board
	// slot read.
	Backlog             func(tor int, now sim.Time, hop netsim.PlannedHop) int
	CongestionThreshold int

	// scratch recycles the working set of a plan that consults the fault
	// view or the congestion board (planScratch). A pool rather than a plain
	// field: PlanRoute is called concurrently from every lookahead domain of
	// a sharded run, and the router must stay safe for concurrent use.
	scratch sync.Pool
}

// planScratch is what a fault-aware or congestion-aware plan needs beyond
// the packet's own route buffer: the congestion pick's candidate list and
// per-(peer, slice) backlog memo (congestion.go), and the Path the health
// predicate is shown. Pooling keeps those plans allocation-free once warm,
// the same discipline as the packet Route buffers PlanRoute appends into.
type planScratch struct {
	cands []core.PathView
	memo  []backlogMemo
	path  core.Path
}

// NewUCMP builds the router from an offline PathSet.
func NewUCMP(ps *core.PathSet) *UCMP {
	u := &UCMP{PS: ps, Ager: core.NewFlowAger(ps), RelaxCutoff: FlowCutoff15MB, ForceBucket: -1}
	u.scratch.New = func() any { return new(planScratch) }
	return u
}

// Name implements netsim.Router.
func (u *UCMP) Name() string { return "ucmp" }

// RotorFlow implements netsim.Router: with latency relaxation on, long
// flows use the hop-by-hop machinery over 2-hop paths.
func (u *UCMP) RotorFlow(f *netsim.Flow) bool {
	return u.Relax && f.Size >= u.RelaxCutoff
}

// PlanRoute implements netsim.Router. The packet's bucket tag picks the
// entry of the UCMP group for (tor, dst, slice); parallel paths tie-break
// on the flow hash. Control packets carry bucket 0 and ride the
// minimum-latency path.
func (u *UCMP) PlanRoute(p *netsim.Packet, tor int, now sim.Time, fromAbs int64, buf []netsim.PlannedHop) ([]netsim.PlannedHop, bool) {
	dst := p.DstToR
	if dst == tor {
		return nil, false
	}
	ts := u.PS.F.CyclicSlice(fromAbs)
	var hash uint64
	if p.Flow != nil {
		hash = p.Flow.Hash
	}
	bucket := p.Bucket
	if u.ForceBucket >= 0 {
		bucket = u.ForceBucket
	}
	if u.Health == nil && (u.Backlog == nil || u.CongestionThreshold <= 0) {
		// Steady state: the wanted entry's hash-selected path, read off the
		// packed store without touching the pool.
		return u.planGroup(p, nil, tor, dst, ts, bucket, hash, now, fromAbs, buf)
	}
	s := u.scratch.Get().(*planScratch)
	hops, ok := u.planGroup(p, s, tor, dst, ts, bucket, hash, now, fromAbs, buf)
	u.scratch.Put(s)
	return hops, ok
}

// planGroup plans from the UCMP group's store view — the same code for
// brute-force and rotation-symmetric path sets, whose views already carry
// the +tor relabeling: congestion steering first (when engaged), then the
// wanted path or its §5.3 recovery (resolve). s is nil in steady state,
// where neither the fault view nor the board is consulted.
func (u *UCMP) planGroup(p *netsim.Packet, s *planScratch, tor, dst, ts, bucket int, hash uint64, now sim.Time, fromAbs int64, buf []netsim.PlannedHop) ([]netsim.PlannedHop, bool) {
	g := u.PS.View(ts, tor, dst)
	var chk healthCheck
	if s != nil {
		chk = healthCheck{h: u.Health, now: now, path: &s.path}
		if path, steered, found := u.pickUncongested(s, g, bucket, tor, now, fromAbs, hash, chk); found {
			p.RecoveredVia = netsim.RecoveryPrimary
			if steered {
				p.RecoveredVia = netsim.RecoverySteered
			}
			return hopsFromView(path, fromAbs, buf), true
		}
	}
	wi := -1
	if g.NumEntries() > 0 {
		wi = u.Ager.EntryIndex(g, bucket)
	}
	r := resolve(u.PS, g, ts, tor, dst, wi, hash, chk)
	p.RecoveredVia = r.class
	switch {
	case r.class == netsim.RecoveryNone:
		return nil, false
	case r.backup != nil:
		return hopsFromPath(r.backup, fromAbs, buf), true
	}
	return hopsFromView(r.path, fromAbs, buf), true
}

// StampBucket tags a data packet with the flow's current aging bucket
// (host-side DSCP stamping, §6.1).
func (u *UCMP) StampBucket(p *netsim.Packet) {
	if p.Flow != nil && p.Type == netsim.Data {
		p.Bucket = u.Ager.Bucket(p.Flow.BytesSent)
	}
}
