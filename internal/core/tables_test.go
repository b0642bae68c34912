package core

import "fmt"

// The full-slice DP: all N source rows of a starting slice at once. The
// PathSet build packs one row at a time and never holds it; the tests use it
// as the reference the rows, the kernel and the store are checked against.

// Tables holds the DP results of Alg. 1 for one starting slice: for every
// source ToR the single-source RowTables — the recursion p^n(src, ·) only
// consults p^(n-1)(src, ·), so the full table is N independent rows.
type Tables struct {
	N          int
	HMax       int
	StartSlice int64 // absolute == cyclic t_start

	rows []RowTables // [src]
}

// Compute runs the n-hop minimum-latency path algorithm (§4.1, Alg. 1) for
// one cyclic starting slice.
//
// The recursion splits an n-hop path into sp1 (the (n-1)-hop
// minimum-latency path src->last) and sp2 (the last hop last->dst); the
// split is feasible when latency(sp1) <= latency(sp2), i.e. the packet
// reaches the last intermediate ToR before (or in) the slice of the final
// circuit. Two refinements over the paper's pseudocode, noted in DESIGN.md §3:
//
//   - instead of discarding an intermediate whose earliest last-hop circuit
//     precedes the packet's arrival, we advance to that circuit's next
//     appearance (a strictly larger search space, same minimality);
//   - hops within a single slice are capped at HSlice so every produced
//     path is physically traversable (Appendix B's h_slice).
func (c *Calculator) Compute(tstart int) *Tables {
	return c.ComputeInto(tstart, nil)
}

// ComputeInto is Compute reusing a scratch Tables from a previous call: the
// HMax·N² DP arrays (and the backing arrays of the tie lists) are recycled
// instead of reallocated per starting slice. Passing nil allocates fresh
// tables. The
// returned Tables aliases the scratch; the caller must extract everything
// it needs (e.g. via Group) before the next ComputeInto on the same
// scratch.
func (c *Calculator) ComputeInto(tstart int, t *Tables) *Tables {
	n := c.F.Sched.N
	if t == nil || t.N != n || t.HMax != c.HMax {
		t = &Tables{N: n, HMax: c.HMax, rows: make([]RowTables, n)}
	}
	t.StartSlice = int64(tstart)
	for src := range t.rows {
		c.ComputeRowInto(tstart, src, &t.rows[src])
	}
	return t
}

// EndSlice returns the absolute end slice of the n-hop minimum-latency path
// src->dst, or -1 if none exists.
func (t *Tables) EndSlice(n, src, dst int) int64 { return t.rows[src].end[n][dst] }

// LatencySlices returns the Eqn. 1 latency of the n-hop minimum-latency
// path, or -1 if none exists.
func (t *Tables) LatencySlices(n, src, dst int) int64 {
	e := t.EndSlice(n, src, dst)
	if e < 0 {
		return -1
	}
	return e - t.StartSlice + 1
}

// Path reconstructs the n-hop minimum-latency path src->dst, or nil if none
// exists.
func (t *Tables) Path(n, src, dst int) *Path {
	if n < 1 || n > t.HMax || t.EndSlice(n, src, dst) < 0 {
		return nil
	}
	p := &Path{Src: src, Dst: dst, StartSlice: t.StartSlice, Hops: make([]Hop, n)}
	if !t.rows[src].fill(p.Hops, n, dst) {
		return nil
	}
	return p
}

// ParallelPaths returns every retained n-hop minimum-latency path (the
// primary plus ties) for src->dst.
func (t *Tables) ParallelPaths(n, src, dst int) []*Path {
	return t.rows[src].parallelPaths(n, dst)
}

// sanity check used by tests: the DP tables must describe valid paths, at
// every level for every pair but the last level's pruned cells, which must
// describe none.
func (t *Tables) validate() error {
	for n := 1; n <= t.HMax; n++ {
		for src := 0; src < t.N; src++ {
			for dst := 0; dst < t.N; dst++ {
				if src == dst {
					continue
				}
				p := t.Path(n, src, dst)
				if pruned := lastLevelPruned(&t.rows[src], n, dst); pruned != (p == nil) {
					return fmt.Errorf("core: %d-hop path %d->%d is %v, on a cell pruned=%v", n, src, dst, p, pruned)
				}
				if p == nil {
					continue
				}
				if err := validPath(p); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// parallelPaths returns every retained n-hop minimum-latency path (the
// primary plus ties) for src->dst as materialized Paths; the PathSet build
// packs the same paths straight into the store instead (packer.paths).
func (t *RowTables) parallelPaths(n, dst int) []*Path {
	if n < 1 || n > t.HMax || t.end[n][dst] < 0 {
		return nil
	}
	newPath := func() *Path {
		return &Path{Src: t.Src, Dst: dst, StartSlice: t.StartSlice, Hops: make([]Hop, n)}
	}
	p := newPath()
	if !t.fill(p.Hops, n, dst) {
		return nil
	}
	out := []*Path{p}
	if n < 2 {
		return out
	}
	for _, alt := range t.par[n][dst] {
		q := newPath()
		q.Hops[n-1] = p.Hops[n-1]
		if t.fill(q.Hops[:n-1], n-1, int(alt)) {
			out = append(out, q)
		}
	}
	return out
}

// fill writes the hops of the n-hop primary path src->dst into hops[0:n],
// walking the last links back from dst. Every prefix src->mid also lives in
// this row.
func (t *RowTables) fill(hops []Hop, n, dst int) bool {
	for ; n >= 1; n-- {
		e := t.end[n][dst]
		if e < 0 {
			return false
		}
		hops[n-1] = Hop{To: dst, Slice: e}
		if n == 1 {
			return true
		}
		mid := int(t.last[n][dst])
		if mid < 0 {
			return false
		}
		dst = mid
	}
	return false
}
