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

	// scratch recycles the *core.Path a fault-aware plan shows the health
	// predicate, keeping those plans allocation-free once warm, the same
	// discipline as the packet Route buffers PlanRoute appends into. A pool
	// rather than a plain field: PlanRoute is called concurrently from every
	// lookahead domain of a sharded run, and the router must stay safe for
	// concurrent use.
	scratch sync.Pool
}

// NewUCMP builds the router from an offline PathSet.
func NewUCMP(ps *core.PathSet) *UCMP {
	u := &UCMP{PS: ps, Ager: core.NewFlowAger(ps), RelaxCutoff: FlowCutoff15MB, ForceBucket: -1}
	u.scratch.New = func() any { return new(core.Path) }
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
	if u.Health == nil {
		// Steady state: the wanted entry's hash-selected path, read off the
		// packed store without touching the pool.
		return u.planGroup(p, nil, tor, dst, ts, bucket, hash, now, fromAbs, buf)
	}
	path := u.scratch.Get().(*core.Path)
	hops, ok := u.planGroup(p, path, tor, dst, ts, bucket, hash, now, fromAbs, buf)
	u.scratch.Put(path)
	return hops, ok
}

// planGroup plans from the UCMP group's store view — the same code for
// brute-force and rotation-symmetric path sets, whose views already carry
// the +tor relabeling: the wanted path or its §5.3 recovery (resolve).
// scratch is nil in steady state, where the fault view is not consulted.
func (u *UCMP) planGroup(p *netsim.Packet, scratch *core.Path, tor, dst, ts, bucket int, hash uint64, now sim.Time, fromAbs int64, buf []netsim.PlannedHop) ([]netsim.PlannedHop, bool) {
	g := u.PS.View(ts, tor, dst)
	var chk healthCheck
	if scratch != nil {
		chk = healthCheck{h: u.Health, now: now, path: scratch}
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
