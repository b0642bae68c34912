package core

import "math"

// RowTables holds the Alg. 1 DP of a single source ToR: the recursion
// p^n(src, dst) only consults p^(n-1)(src, ·), so one source's row is
// computed without materializing the full N² table. The brute-force PathSet
// build runs all N of them per starting slice, one at a time on one
// scratch; switch-resource estimation (Table 2) samples a few; the
// rotation-symmetric PathSet build runs one canonical source row per
// starting slice, standing in for all N rotated sources.
//
// Level HMax is computed only where a group reads it. No level below HMax
// reads it, and a destination that some lower level already reaches in
// t_start keeps its whole group below HMax: latency 1 is the global minimum,
// so entryLevels stops there (inStart). That destination's level-HMax cell
// holds the "not computed" value — end −1, last −1, hLast 0, up 0, no ties —
// which the source's own column holds at every level too, so a reused
// scratch equals a fresh one cell for cell. A caller that reads level h of
// every destination computes with HMax ≥ h+1.
type RowTables struct {
	N          int
	HMax       int
	Src        int
	StartSlice int64

	end   [][]int64   // [n][dst] absolute end slice; -1 where no path or not computed
	last  [][]int32   // last intermediate ToR of the primary solution
	hLast [][]int8    // hops taken within the final slice
	up    [][]uint16  // switch of the primary's last link: the lowest one realizing it
	par   [][][]int32 // tied alternative last hops (excluding primary)
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
	n := c.F.Sched.N
	if t == nil {
		t = &RowTables{}
	}
	if t.N != n || t.HMax != c.HMax {
		*t = RowTables{N: n, HMax: c.HMax}
		t.end = make([][]int64, c.HMax+1)
		t.last = make([][]int32, c.HMax+1)
		t.hLast = make([][]int8, c.HMax+1)
		t.up = make([][]uint16, c.HMax+1)
		t.par = make([][][]int32, c.HMax+1)
		for h := 1; h <= c.HMax; h++ {
			t.end[h] = make([]int64, n)
			t.last[h] = make([]int32, n)
			t.hLast[h] = make([]int8, n)
			t.up[h] = make([]uint16, n)
			t.par[h] = make([][]int32, n)
		}
	}
	t.Src = src
	t.StartSlice = int64(tstart)
	// Every other column is rewritten below; the source's own is "not
	// computed" at every level, which is also what keeps src out of the
	// intermediates in extendRow.
	for h := 1; h <= c.HMax; h++ {
		t.clear(h, src)
	}
	c.directRow(t)
	// n >= 2: extend the (n-1)-hop minimum-latency paths by one hop.
	for h := 2; h <= c.HMax; h++ {
		c.extendRow(t, h)
	}
	return t
}

// directRow computes level 1, the direct circuits (Fig 3b), from the
// source's own circuits, slice by slice from t_start: the first slice a
// destination appears in ends its direct path, on the lowest switch that
// realizes it. Every pair meets within one cycle.
func (c *Calculator) directRow(t *RowTables) {
	sched := c.F.Sched
	n, d, s, src := t.N, sched.D, sched.S, t.Src
	end, last, hl, up := t.end[1], t.last[1], t.hLast[1], t.up[1]
	for dst := range end {
		end[dst] = -1
	}
	peers := sched.Peers()
	left := n - 1
	for at, cyc := t.StartSlice, int(t.StartSlice%int64(s)); left > 0; at++ {
		if at == t.StartSlice+int64(s) {
			panic("core: pair never connected in schedule")
		}
		for u, m := range peers[(cyc*n+src)*d : (cyc*n+src+1)*d] {
			if end[m] < 0 && int(m) != src {
				end[m], last[m], hl[m], up[m] = at, -1, 1, uint16(u)
				left--
			}
		}
		if cyc++; cyc == s {
			cyc = 0
		}
	}
}

// clear writes the "not computed" value into the level-h cell of dst.
func (t *RowTables) clear(h, dst int) {
	t.end[h][dst], t.last[h][dst], t.hLast[h][dst], t.up[h][dst] = -1, -1, 0, 0
	t.par[h][dst] = t.par[h][dst][:0]
}

// inStart reports whether the n-hop path to dst ends in t_start: latency 1,
// the global minimum, which no path of more hops improves on.
func (t *RowTables) inStart(n, dst int) bool { return t.end[n][dst] == t.StartSlice }

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
// checks instead of N-2. At h = HMax, destinations a lower level reaches in
// t_start are skipped (see RowTables).
//
// Tie selection replays the rule of a scan over all intermediates in
// source-relative order (src+1, src+2, ... mod N): the first tied
// intermediate is the primary; a later one leaving more slack in the final
// slice (smaller hl) demotes the primary into the tie list; the rest join
// the tie list under the MaxParallel-1 cap. A slice's neighbours of dst are
// sorted ascending (NewCalculator), so that order is the run walked from its
// first peer >= src, wrapping around; a pair two switches realize in the
// slice is the same peer twice, adjacent in the run with the lower switch
// first, and counts once. That order is what makes tie selection
// equivariant under ToR rotation — on a rotation-symmetric schedule the row
// of src is exactly the rotated row of ToR 0, which the symmetric PathSet
// build relies on.
func (c *Calculator) extendRow(t *RowTables, h int) {
	n, d, s := t.N, c.F.Sched.D, c.F.Sched.S
	src := t.Src
	prevEnd, prevHL := t.end[h-1], t.hLast[h-1]
	curEnd, curLast, curHL, curUp, par := t.end[h], t.last[h], t.hLast[h], t.up[h], t.par[h]
	hSlice, maxTies := c.HSlice, c.MaxParallel-1
	// Every level-(h-1) path ends within (h-1)·S slices and every circuit
	// reappears within S.
	limit := t.StartSlice + int64(h)*int64(s)
	cyc0 := int(t.StartSlice % int64(s))
dsts:
	for dst := 0; dst < n; dst++ {
		if dst == src {
			continue
		}
		if h == t.HMax {
			for lower := 1; lower < h; lower++ {
				if t.inStart(lower, dst) {
					t.clear(h, dst)
					continue dsts
				}
			}
		}
		// Reuse the tie list's backing array from the previous starting
		// slice computed on this scratch.
		ties := par[dst][:0]
		bestLast, bestHL, bestUp := int32(-1), int8(0), uint16(0)
		at, cyc := t.StartSlice, cyc0
		for {
			base := (cyc*n + dst) * d
			run := c.peers[base : base+d]
			i := 0
			for i < d && int(run[i]) < src {
				i++
			}
			prevMid := int32(-1)
			for j := 0; j < d; j, i = j+1, i+1 {
				if i == d {
					i = 0
				}
				mid := run[i]
				e1 := prevEnd[mid]
				if uint64(e1) > uint64(at) {
					continue // not there by slice at (-1: no path at all)
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
				if mid == prevMid {
					continue // the second switch realizing this pair
				}
				prevMid = mid
				switch {
				case bestLast < 0:
					bestLast, bestHL, bestUp = mid, hl, c.peerUp[base+i]
				case hl < bestHL:
					// Prefer the variant leaving slack in the final slice;
					// demote the old primary to a tie.
					ties = appendTie(ties, bestLast, maxTies)
					bestLast, bestHL, bestUp = mid, hl, c.peerUp[base+i]
				default:
					ties = appendTie(ties, mid, maxTies)
				}
			}
			if bestLast >= 0 {
				break
			}
			if at++; at >= limit {
				panic("core: pair never connected in schedule")
			}
			if cyc++; cyc == s {
				cyc = 0
			}
		}
		curEnd[dst] = at
		curLast[dst] = bestLast
		curHL[dst] = bestHL
		curUp[dst] = bestUp
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
		if t.inStart(n, dst) {
			break // nothing to the right qualifies
		}
	}
	return buf
}
