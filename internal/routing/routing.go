// Package routing implements the routing strategies compared in the paper
// (§2.2, §7): UCMP (the contribution), VLB, KSP (k=1 and k=5), and Opera's
// topology-routing co-design. All satisfy netsim.Router; the pure path
// logic is also exposed for offline path analytics (Fig 5).
package routing

import (
	"ucmp/internal/core"
	"ucmp/internal/netsim"
)

// hopsFromPath converts a core.Path (slices relative to its group's start)
// into netsim planned hops anchored at absolute slice fromAbs, appending
// into buf (the packet's recycled Route storage — zero-length, reusable
// capacity) so steady-state planning allocates nothing.
func hopsFromPath(p *core.Path, fromAbs int64, buf []netsim.PlannedHop) []netsim.PlannedHop {
	offset := fromAbs - p.StartSlice
	for _, h := range p.Hops {
		buf = append(buf, netsim.PlannedHop{To: h.To, AbsSlice: h.Slice + offset})
	}
	return buf
}

// hopsFromView is hopsFromPath for a path of the packed store: the view
// already reports absolute ToR labels (rotated by the source ToR on a
// rotation-symmetric path set), so brute-force, symmetric and baseline (KSP,
// Opera) stores emit through the same loop.
func hopsFromView(p core.PathView, fromAbs int64, buf []netsim.PlannedHop) []netsim.PlannedHop {
	offset := fromAbs - p.StartSlice()
	for w := p.Walk(); ; {
		h, ok := w.Next()
		if !ok {
			return buf
		}
		buf = append(buf, netsim.PlannedHop{To: h.To, AbsSlice: h.Slice + offset})
	}
}

// FlowCutoff15MB is Opera's hard flow-size cutoff (§2.2).
const FlowCutoff15MB = 15 << 20
