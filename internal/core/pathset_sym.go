package core

import (
	"sync"
	"sync/atomic"
)

// Rotation-symmetric PathSet build (DESIGN.md §13). When the schedule's
// Rotation() witness holds, the DP row of any source ToR is the rotated row
// of ToR 0: NextDirect(a, b, t) = NextDirect(a+k, b+k, t) for every k, the
// DP recursion preserves that equivalence level by level, and the
// source-relative intermediate order makes tie selection equivariant too.
// So the build computes only the O(S·N) canonical rows (t_start, 0, Δ) and
// serves Group(ts, src, dst) by relabeling hops of the canonical group for
// Δ = (dst-src) mod N.
//
// Canonical groups are stored t_start-relative (StartSlice 0, hop slices
// shifted down by t_start): two canonical rows that differ only by a time
// shift then become byte-identical and are interned once, content-hashed
// into a persistent arena. The per-(ts, Δ) spine is a flat []int32 of
// indices into the interned store — no N² pointer spine at all.

// symIndex returns the canonical spine index for (tstart, delta).
func (ps *PathSet) symIndex(tstart, delta int) int32 {
	return ps.canonIdx[tstart*ps.F.Sched.N+delta]
}

// Symmetric reports whether this PathSet was built by the rotation-
// symmetric canonical build (Group then materializes on demand; the routing
// fast path uses CanonGroup + hop relabeling instead).
func (ps *PathSet) Symmetric() bool { return ps.sym }

// CanonGroup returns the interned canonical group for (t_start, Δ),
// Δ = (dst-src) mod N in [1, N). The group is t_start-relative: Src 0,
// Dst Δ, StartSlice 0, hop slices relative to t_start. Callers translate
// hops by (+src mod N, +t_start) to obtain the concrete group; entry
// structure, bucket thresholds, and path counts need no translation.
// Shared and read-only.
func (ps *PathSet) CanonGroup(tstart, delta int) *Group {
	return ps.interned[ps.symIndex(tstart, delta)]
}

// CanonStats returns the canonical-row count (S·(N-1)) and the number of
// distinct interned groups after content dedup.
func (ps *PathSet) CanonStats() (rows, unique int) {
	if !ps.sym {
		return 0, 0
	}
	return ps.F.Sched.S * (ps.F.Sched.N - 1), len(ps.interned)
}

// buildSymmetric fills the PathSet from canonical source-0 rows. The
// per-slice DP fans out over the worker pool exactly like the brute build;
// the interning pass is serial in ascending (t_start, Δ) order so the
// interned store and spine are deterministic regardless of worker count.
func (ps *PathSet) buildSymmetric(workers int) {
	calc := ps.Calc
	sched := ps.F.Sched
	n, s := sched.N, sched.S
	rows := make([][]*Group, s) // transient absolute-slice groups, src 0
	if workers <= 1 {
		var scratch *RowTables
		arena := newArenaFor(n)
		for ts := 0; ts < s; ts++ {
			scratch = calc.ComputeRowInto(ts, 0, scratch)
			rows[ts] = calc.canonicalRow(arena, scratch, ps.Model)
		}
	} else {
		var next atomic.Int64
		next.Store(-1)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var scratch *RowTables
				arena := newArenaFor(n)
				for {
					ts := int(next.Add(1))
					if ts >= s {
						return
					}
					scratch = calc.ComputeRowInto(ts, 0, scratch)
					rows[ts] = calc.canonicalRow(arena, scratch, ps.Model)
				}
			}()
		}
		wg.Wait()
	}

	// Serial interning in (ts, Δ) order: deterministic indices, and the
	// transient row arenas are released wholesale once every unique group
	// has been deep-copied into the persistent arena.
	ps.sym = true
	ps.canonIdx = make([]int32, s*n)
	perm := newArenaFor(n)
	byHash := make(map[uint64][]int32)
	for ts := 0; ts < s; ts++ {
		row := rows[ts]
		for delta := 0; delta < n; delta++ {
			if delta == 0 {
				ps.canonIdx[ts*n] = -1
				continue
			}
			g := row[delta]
			h := hashGroupRel(g)
			idx := int32(-1)
			for _, cand := range byHash[h] {
				if groupEqualRel(ps.interned[cand], g) {
					idx = cand
					break
				}
			}
			if idx < 0 {
				idx = int32(len(ps.interned))
				ps.interned = append(ps.interned, copyGroupRel(perm, g))
				byHash[h] = append(byHash[h], idx)
			}
			ps.canonIdx[ts*n+delta] = idx
		}
		rows[ts] = nil
	}
}

// canonicalRow extracts the source-0 groups of one starting slice
// (destinations 1..N-1; index 0 stays nil).
func (c *Calculator) canonicalRow(a *groupArena, t *RowTables, m CostModel) []*Group {
	row := make([]*Group, t.N)
	for dst := 1; dst < t.N; dst++ {
		row[dst] = c.groupFromRow(a, t, dst, m)
	}
	return row
}

// hashGroupRel content-hashes a canonical group in t_start-relative form
// (FNV-1a over entry and hop structure). Groups equal under the shift hash
// equal; hull and thresholds are functions of the entries and need no
// hashing.
func hashGroupRel(g *Group) uint64 {
	const (
		offset = 1469598103934665603
		prime  = 1099511628211
	)
	ts := int64(g.StartSlice)
	h := uint64(offset)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	mix(uint64(len(g.Entries)))
	for _, e := range g.Entries {
		mix(uint64(e.HopCount))
		mix(uint64(e.LatencySlices))
		mix(uint64(len(e.Paths)))
		for _, p := range e.Paths {
			for _, hp := range p.Hops {
				mix(uint64(hp.To))
				mix(uint64(hp.Slice - ts))
			}
		}
	}
	return h
}

// groupEqualRel compares an interned (already relative) group against a
// transient absolute one under the latter's t_start shift.
func groupEqualRel(rel, abs *Group) bool {
	if len(rel.Entries) != len(abs.Entries) {
		return false
	}
	ts := int64(abs.StartSlice)
	for i := range rel.Entries {
		re, ae := &rel.Entries[i], &abs.Entries[i]
		if re.HopCount != ae.HopCount || re.LatencySlices != ae.LatencySlices ||
			len(re.Paths) != len(ae.Paths) {
			return false
		}
		for j := range re.Paths {
			rp, ap := re.Paths[j], ae.Paths[j]
			if len(rp.Hops) != len(ap.Hops) {
				return false
			}
			for k := range rp.Hops {
				if rp.Hops[k].To != ap.Hops[k].To || rp.Hops[k].Slice != ap.Hops[k].Slice-ts {
					return false
				}
			}
		}
	}
	return true
}

// copyGroupRel deep-copies a transient absolute group into the persistent
// arena in t_start-relative form.
func copyGroupRel(a *groupArena, g *Group) *Group {
	ts := int64(g.StartSlice)
	ng := a.groups.one()
	ng.Src, ng.Dst, ng.StartSlice = 0, g.Dst, 0
	ng.Entries = a.entries.take(len(g.Entries))
	for i, e := range g.Entries {
		paths := a.ptrs.take(len(e.Paths))
		for j, p := range e.Paths {
			np := a.paths.one()
			np.Src, np.Dst, np.StartSlice = 0, p.Dst, 0
			np.Hops = a.hops.take(len(p.Hops))
			for k, hp := range p.Hops {
				np.Hops[k] = Hop{To: hp.To, Slice: hp.Slice - ts}
			}
			paths[j] = np
		}
		ng.Entries[i] = Entry{HopCount: e.HopCount, LatencySlices: e.LatencySlices, Paths: paths}
	}
	ng.hull = a.ints.take(len(g.hull))
	copy(ng.hull, g.hull)
	if len(g.thrFree) > 0 {
		ng.thrFree = a.floats.take(len(g.thrFree))
		copy(ng.thrFree, g.thrFree)
	}
	return ng
}

// materializeGroup builds the concrete absolute group for (ts, src, dst)
// from its canonical representative: hops rotate by +src and shift by +ts;
// the hull and threshold slices are shared (read-only and
// translation-invariant). Allocates — the compatibility path for callers
// that need a *Group; the per-packet fast path relabels hops inline
// instead (routing.UCMP).
func (ps *PathSet) materializeGroup(tstart, src, dst int) *Group {
	n := ps.F.Sched.N
	delta := dst - src
	if delta < 0 {
		delta += n
	}
	cg := ps.CanonGroup(tstart, delta)
	g := &Group{
		Src: src, Dst: dst, StartSlice: tstart,
		Entries: make([]Entry, len(cg.Entries)),
		hull:    cg.hull,
		thrFree: cg.thrFree,
	}
	for i, e := range cg.Entries {
		paths := make([]*Path, len(e.Paths))
		for j, p := range e.Paths {
			hops := make([]Hop, len(p.Hops))
			for k, hp := range p.Hops {
				to := hp.To + src
				if to >= n {
					to -= n
				}
				hops[k] = Hop{To: to, Slice: hp.Slice + int64(tstart)}
			}
			paths[j] = &Path{Src: src, Dst: dst, StartSlice: int64(tstart), Hops: hops}
		}
		g.Entries[i] = Entry{HopCount: e.HopCount, LatencySlices: e.LatencySlices, Paths: paths}
	}
	return g
}
