package core

import "math"

// RowTables holds the Alg. 1 DP of a single source ToR: the recursion
// p^n(src, dst) only consults p^(n-1)(src, ·), so one source's row is
// computed without materializing the full N² table. The brute-force PathSet
// build runs all N of them per starting slice, one at a time on one
// scratch; switch-resource estimation (Table 2) samples a few; the
// rotation-symmetric PathSet build runs one canonical source row per
// starting slice, standing in for all N rotated sources.
type RowTables struct {
	N          int
	HMax       int
	Src        int
	StartSlice int64

	end   [][]int64   // [n][dst] absolute end slice; -1 where no path
	last  [][]int32   // last intermediate ToR of the primary solution
	hLast [][]int8    // hops taken within the final slice
	par   [][][]int32 // tied alternative last hops (excluding primary)

	cand []int // extendRow scratch: eligible neighbours of one slice
}

// ComputeRow runs the DP for a single source ToR and starting slice.
func (c *Calculator) ComputeRow(tstart, src int) *RowTables {
	return c.ComputeRowInto(tstart, src, nil)
}

// ComputeRowInto is ComputeRow reusing a scratch RowTables from a previous
// call: the DP arrays and tie-list backing arrays are recycled across
// starting slices, which is what makes the PathSet build allocation-lean.
// Passing nil allocates fresh tables. The returned tables alias the
// scratch; callers must extract what they need before the next
// ComputeRowInto on the same scratch.
func (c *Calculator) ComputeRowInto(tstart, src int, t *RowTables) *RowTables {
	sched := c.F.Sched
	n := sched.N
	if t == nil {
		t = &RowTables{}
	}
	if t.N != n || t.HMax != c.HMax {
		*t = RowTables{N: n, HMax: c.HMax, cand: make([]int, 0, sched.D)}
		t.end = make([][]int64, c.HMax+1)
		t.last = make([][]int32, c.HMax+1)
		t.hLast = make([][]int8, c.HMax+1)
		t.par = make([][][]int32, c.HMax+1)
		for h := 1; h <= c.HMax; h++ {
			t.end[h] = make([]int64, n)
			t.last[h] = make([]int32, n)
			t.hLast[h] = make([]int8, n)
			t.par[h] = make([][]int32, n)
		}
	}
	t.Src = src
	t.StartSlice = int64(tstart)
	// Every other column is rewritten below; the source's own stays -1 at
	// every level, which is also what keeps src out of the intermediates in
	// extendRow.
	for h := 1; h <= c.HMax; h++ {
		t.end[h][src] = -1
		t.last[h][src] = -1
	}
	// n = 1: direct circuits (Fig 3b).
	for dst := 0; dst < n; dst++ {
		if dst == src {
			continue
		}
		t.end[1][dst] = sched.NextDirect(src, dst, t.StartSlice)
		t.last[1][dst] = -1
		t.hLast[1][dst] = 1
	}
	// n >= 2: extend the (n-1)-hop minimum-latency paths by one hop.
	for h := 2; h <= c.HMax; h++ {
		c.extendRow(t, h)
	}
	return t
}

// extendRow computes DP level h of the row from level h-1 by scanning slice
// adjacency instead of intermediates. The n-hop path src->dst through
// intermediate m ends in the first slice t >= end[h-1][m] in which the
// (m, dst) circuit is up — strictly later when m's arrival already used the
// whole slice hop budget. So walking t upward from t_start and looking, in
// each slice, only at the <= d ToRs holding a circuit to dst, the first
// slice with an eligible neighbour (arrived before t, or in t with budget
// left) is the minimum end slice, and that slice's eligible neighbours are
// exactly the tied intermediates: every other m ends later, every one of
// them ends in t by minimality. Cost per pair: (latency in slices)·d
// checks instead of N-2.
//
// Tie selection replays the rule of a scan over all intermediates in
// source-relative order (src+1, src+2, ... mod N): the first tied
// intermediate is the primary; a later one leaving more slack in the final
// slice (smaller hl) demotes the primary into the tie list; the rest join
// the tie list under the MaxParallel-1 cap. That order is what makes tie
// selection equivariant under ToR rotation — on a rotation-symmetric
// schedule the row of src is exactly the rotated row of ToR 0, which the
// symmetric PathSet build relies on.
func (c *Calculator) extendRow(t *RowTables, h int) {
	n, d, s := t.N, c.F.Sched.D, c.F.Sched.S
	src := t.Src
	prevEnd, prevHL := t.end[h-1], t.hLast[h-1]
	curEnd, curLast, curHL, par := t.end[h], t.last[h], t.hLast[h], t.par[h]
	hSlice, maxTies := c.HSlice, c.MaxParallel-1
	// Every level-(h-1) path ends within (h-1)·S slices and every circuit
	// reappears within S.
	limit := t.StartSlice + int64(h)*int64(s)
	cyc0 := int(t.StartSlice % int64(s))
	for dst := 0; dst < n; dst++ {
		if dst == src {
			continue
		}
		cand := t.cand[:0] // cap d: only one slice's neighbours are ever held
		at, cyc := t.StartSlice, cyc0
		for {
			for _, mid := range c.peers[(cyc*n+dst)*d : (cyc*n+dst+1)*d] {
				e1 := prevEnd[mid]
				if e1 < 0 || e1 > at {
					continue
				}
				hl := int8(1)
				if e1 == at {
					if int(prevHL[mid]) >= hSlice {
						// Slice hop budget exhausted: wait for the next
						// appearance of the circuit.
						continue
					}
					hl = prevHL[mid] + 1
				}
				// Insertion sort by source-relative scan position
				// (mid - src) mod N, with hl in the low byte.
				key := int(mid) - src
				if key < 0 {
					key += n
				}
				v := key<<8 | int(hl)
				cand = append(cand, v)
				i := len(cand) - 1
				for ; i > 0 && cand[i-1] > v; i-- {
					cand[i] = cand[i-1]
				}
				cand[i] = v
			}
			if len(cand) > 0 {
				break
			}
			if at++; at >= limit {
				panic("core: pair never connected in schedule")
			}
			if cyc++; cyc == s {
				cyc = 0
			}
		}
		// Reuse the tie list's backing array from the previous starting
		// slice computed on this scratch.
		ties := par[dst][:0]
		var bestLast int32
		var bestHL int8
		for i, v := range cand {
			mid := v>>8 + src
			if mid >= n {
				mid -= n
			}
			hl := int8(v)
			switch {
			case i == 0:
				bestLast, bestHL = int32(mid), hl
			case v == cand[i-1]:
				// Two switches realize the same pair in this slice.
			case hl < bestHL:
				// Prefer the variant leaving slack in the final slice;
				// demote the old primary to a tie.
				ties = appendTie(ties, bestLast, maxTies)
				bestLast, bestHL = int32(mid), hl
			default:
				ties = appendTie(ties, int32(mid), maxTies)
			}
		}
		curEnd[dst] = at
		curLast[dst] = bestLast
		curHL[dst] = bestHL
		par[dst] = ties
	}
}

// appendTie retains v unless the tie list is at its cap.
func appendTie(ties []int32, v int32, max int) []int32 {
	if len(ties) >= max {
		return ties
	}
	return append(ties, v)
}

// fill writes the hops of the n-hop primary path src->dst into hops[0:n],
// walking the last links back from dst (iterative: reconstruction runs once
// per retained path, so it must not pay call overhead per hop). Every
// prefix src->mid also lives in this row.
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

// entryLevels appends to buf the hop counts that make it into the group of
// dst: property 3 (§4.3) keeps a hop count only when its latency strictly
// improves on every kept lower one.
func (t *RowTables) entryLevels(buf []int, dst int) []int {
	best := int64(math.MaxInt64)
	for n := 1; n <= t.HMax; n++ {
		e := t.end[n][dst]
		if e < 0 || e >= best {
			continue
		}
		buf = append(buf, n)
		best = e
		if e == t.StartSlice {
			break // latency 1 is the global minimum: nothing to the right qualifies
		}
	}
	return buf
}

// GroupShape summarizes one group's bucket structure without materializing
// paths: the hull (hop, latency) points and the α-free thresholds.
type GroupShape struct {
	Hops       []int
	Latencies  []int64
	Thresholds []float64
}

// GroupShapes extracts the property-3-filtered, hull-reduced group shape
// for every destination of the row.
func (c *Calculator) GroupShapes(t *RowTables, m CostModel) []GroupShape {
	out := make([]GroupShape, t.N)
	var levels []int
	for dst := 0; dst < t.N; dst++ {
		if dst == t.Src {
			continue
		}
		g := Group{Src: t.Src, Dst: dst, StartSlice: int(t.StartSlice)}
		levels = t.entryLevels(levels[:0], dst)
		for _, h := range levels {
			g.Entries = append(g.Entries, Entry{HopCount: h, LatencySlices: t.end[h][dst] - t.StartSlice + 1})
		}
		g.BuildBuckets(m)
		sh := GroupShape{}
		for _, hi := range g.hull {
			sh.Hops = append(sh.Hops, g.Entries[hi].HopCount)
			sh.Latencies = append(sh.Latencies, g.Entries[hi].LatencySlices)
		}
		sh.Thresholds = append(sh.Thresholds, g.thrFree...)
		out[dst] = sh
	}
	return out
}
