package routing

import (
	"ucmp/internal/core"
	"ucmp/internal/netsim"
	"ucmp/internal/sim"
)

// §5.3 recovery is coded once, in resolve: PlanRoute applies it to the
// packet in hand, and Classify applies it to every path a failure breaks
// (Fig 12a–c), so the offline breakdown counts what the runs do.

// healthCheck evaluates the fault view on store paths. HealthView takes a
// *core.Path, so the view is copied into the plan's scratch Path first — no
// allocation, and the predicate sees absolute labels on brute-force and
// symmetric path sets alike. The zero check (no fault view) accepts
// everything.
type healthCheck struct {
	h    HealthView
	now  sim.Time
	path *core.Path
}

func (c healthCheck) ok(p core.PathView) bool {
	if c.h == nil {
		return true
	}
	p.Fill(c.path)
	return c.h.PathOK(c.now, c.path)
}

// resolution is where the §5.3 policy sends a plan: a path of the UCMP
// group, or, when class is RecoveryBackup, a 2-hop backup path. Class
// RecoveryNone carries no path.
type resolution struct {
	class  netsim.RecoveryClass
	path   core.PathView
	backup *core.Path
}

// resolve is UCMP's §5.3 recovery policy. g is the UCMP group of (ts, src,
// dst); the wanted path is entry wi's hash-selected parallel (wi < 0: the
// group offers none). Without a fault view that path is the answer (the
// steady-state hot path). Under faults the order is: the wanted path while
// healthy, then a healthy parallel of the wanted entry (same hop count),
// then the other entries — shorter first, then longer, each in group entry
// order (entries ascend strictly in hop count, so no other entry has the
// wanted length) — then the first healthy of the core.BackupDepth
// cheapest 2-hop backups that avoid failed ToRs, scanned from the hash's
// rotation. Within an entry the scan also starts at the hash's path.
func resolve(ps *core.PathSet, g core.GroupView, ts, src, dst, wi int, hash uint64, chk healthCheck) resolution {
	if wi >= 0 {
		if want := g.Entry(wi); want.NumPaths > 0 {
			primary := int(hash % uint64(want.NumPaths))
			if chk.h == nil {
				return resolution{class: netsim.RecoveryPrimary, path: want.Path(primary)}
			}
			if j := healthyOf(want, hash, chk); j >= 0 {
				class := netsim.RecoverySameLength
				if j == primary {
					class = netsim.RecoveryPrimary
				}
				return resolution{class: class, path: want.Path(j)}
			}
			for i := 0; i < g.NumEntries(); i++ {
				if i == wi {
					continue
				}
				e := g.Entry(i)
				if j := healthyOf(e, hash, chk); j >= 0 {
					class := netsim.RecoveryLonger
					if i < wi {
						class = netsim.RecoveryShorter
					}
					return resolution{class: class, path: e.Path(j)}
				}
			}
		}
	}
	// Group exhausted (a failure, or an empty group): fall back to a
	// healthy backup 2-hop path avoiding failed ToRs.
	var exclude func(int) bool
	if h := chk.h; h != nil {
		exclude = func(t int) bool { return !h.TorOK(chk.now, t) }
	}
	backups := ps.BackupPaths(ts, src, dst, exclude)
	for i := range backups {
		b := backups[(int(hash%uint64(len(backups)))+i)%len(backups)]
		if chk.h == nil || chk.h.PathOK(chk.now, b) {
			return resolution{class: netsim.RecoveryBackup, backup: b}
		}
	}
	return resolution{class: netsim.RecoveryNone}
}

// healthyOf returns the index of the hash-selected healthy path of the
// entry, or -1 when the entry has no paths or every path is unhealthy.
func healthyOf(e core.EntryView, hash uint64, chk healthCheck) int {
	n := e.NumPaths
	if n == 0 {
		return -1
	}
	start := int(hash % uint64(n))
	for i := 0; i < n; i++ {
		j := (start + i) % n
		if chk.ok(e.Path(j)) {
			return j
		}
	}
	return -1
}

// Breakdown is the Fig 12a–c result: how many UCMP paths between healthy
// ToRs were walked, how many of them a failure breaks, and how resolve
// recovers each broken one, counted per netsim.RecoveryClass
// (RecoverySameLength through RecoveryNone).
type Breakdown struct {
	Total    int
	Affected int
	Count    [netsim.RecoveryNone + 1]int
}

// Share returns the fraction of affected paths that recover as class c, or
// 0 when nothing is affected.
func (b Breakdown) Share(c netsim.RecoveryClass) float64 {
	if b.Affected == 0 {
		return 0
	}
	return float64(b.Count[c]) / float64(b.Affected)
}

// Classify walks every UCMP path of the PathSet whose endpoints are healthy
// and, for each one h reports broken, asks resolve what a packet wanting
// that path would ride instead — the same call PlanRoute makes, with the
// path's entry as the wanted one and a hash that selects it. h is read at
// time 0, so it should be a fixed fault state: a failure.Scenario reaches
// Classify as StaticHealth{Path: sc.PathOK, Tor: sc.TorOK}.
func Classify(ps *core.PathSet, h HealthView) Breakdown {
	var b Breakdown
	chk := healthCheck{h: h, path: new(core.Path)}
	sched := ps.F.Sched
	for ts := 0; ts < sched.S; ts++ {
		for src := 0; src < sched.N; src++ {
			if !h.TorOK(0, src) {
				continue
			}
			for dst := 0; dst < sched.N; dst++ {
				if dst == src || !h.TorOK(0, dst) {
					continue
				}
				g := ps.View(ts, src, dst)
				for i := 0; i < g.NumEntries(); i++ {
					e := g.Entry(i)
					for j := 0; j < e.NumPaths; j++ {
						b.Total++
						if chk.ok(e.Path(j)) {
							continue
						}
						b.Affected++
						b.Count[resolve(ps, g, ts, src, dst, i, uint64(j), chk).class]++
					}
				}
			}
		}
	}
	return b
}
