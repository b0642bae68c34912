package routing

import (
	"ucmp/internal/core"
	"ucmp/internal/netsim"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
)

// KSP is k-shortest-path routing applied to RDCNs (§2.2), and — built by
// NewOpera — Opera's topology-routing co-design. Its PathSet holds, per
// (slice, src, dst), the top-k loopless shortest paths of that slice's
// topology instance; a packet dispatched in slice t follows a slice-t path,
// and if the network reconfigures mid-flight the netsim recirculation
// replans it from the current ToR on the new instance (Fig 1e).
type KSP struct {
	PS *core.PathSet
	K  int
	// Cutoff, when positive, sends flows of at least that many bytes
	// through the VLB / RotorLB machinery (Opera's 15 MB rule).
	Cutoff int64

	name string
	// wait is how many starting slices a plan searches for a group with
	// paths: 1 for KSP, whose full slice graphs connect every pair; a whole
	// cycle for Opera, whose stable subgraph can transiently disconnect a
	// pair — Opera then waits for a later topology, and those unusable
	// circuits are exactly the §2.2 "circuit waste".
	wait int
}

// NewKSP stores the per-slice k-shortest paths of the full slice graphs.
func NewKSP(f *topo.Fabric, k int) *KSP {
	return &KSP{PS: core.BuildKSPPathSet(f, k, false), K: k, name: kName("ksp", k), wait: 1}
}

// NewOpera stores the per-slice k-shortest paths of the stable subgraphs
// (excluding the circuits about to reconfigure, so no packet is in flight
// across a reconfiguration) for the flows under the 15 MB cutoff; it expects
// the staggered Opera schedule (one circuit switch reconfiguring per slice
// boundary).
func NewOpera(f *topo.Fabric, k int) *KSP {
	return &KSP{PS: core.BuildKSPPathSet(f, k, true), K: k, Cutoff: FlowCutoff15MB,
		name: kName("opera", k), wait: f.Sched.S}
}

func kName(scheme string, k int) string {
	if k == 1 {
		return scheme + "-1"
	}
	return scheme + "-k"
}

// Name implements netsim.Router.
func (r *KSP) Name() string { return r.name }

// RotorFlow implements netsim.Router: only flows over the cutoff use the
// rotor machinery.
func (r *KSP) RotorFlow(f *netsim.Flow) bool { return r.Cutoff > 0 && f.Size >= r.Cutoff }

// PlanRoute implements netsim.Router: the flow hash picks one of the paths of
// the first starting slice (from fromAbs, up to wait of them) whose group has
// any; all hops are planned within that slice (continuous-path assumption).
func (r *KSP) PlanRoute(p *netsim.Packet, tor int, now sim.Time, fromAbs int64, buf []netsim.PlannedHop) ([]netsim.PlannedHop, bool) {
	dst := p.DstToR
	if dst == tor {
		return nil, false
	}
	var hash uint64
	if p.Flow != nil {
		hash = p.Flow.Hash
	}
	for w := 0; w < r.wait; w++ {
		abs := fromAbs + int64(w)
		g := r.PS.View(r.PS.F.CyclicSlice(abs), tor, dst)
		if n := g.NumPaths(); n > 0 {
			return hopsFromView(g.Path(int(hash%uint64(n))), abs, buf), true
		}
	}
	return nil, false
}
