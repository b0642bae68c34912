package core

import (
	"math"
	"math/bits"
)

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

	// Scratch of extendRow: per level, the first slice (relative to
	// t_start) in which each intermediate is eligible; per slice, the
	// eligible circuit ends of one destination's run.
	ready []int32
	mask  []uint64

	// err is the first level-h ≥ 2 cell whose recorded uplink does not join
	// its last intermediate to its destination in its end slice (extendRow);
	// the packer fails with it.
	err error
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
	words := (c.F.Sched.D + 63) / 64
	if t.N != n || t.HMax != c.HMax || len(t.mask) != words {
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
		t.ready = make([]int32, n)
		t.mask = make([]uint64, words)
	}
	t.Src = src
	t.StartSlice = int64(tstart)
	t.err = nil
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
// whole slice hop budget. So each intermediate has a first slice it can
// extend in, ready[m] (relative to t_start): its level-(h-1) end slice, +1
// when that path spent the budget, and MaxInt32 when level h-1 does not
// reach m (src among them). m is eligible in slice t exactly when
// ready[m] <= t, so walking t upward from t_start and looking, in each
// slice, only at the <= d ToRs holding a circuit to dst, the first slice
// with an eligible neighbour is the minimum end slice, and that slice's
// eligible neighbours are exactly the tied intermediates: every other m
// ends later, every one of them ends in t by minimality. ready is computed
// once per level; per (dst, slice) the test is a branch-free mask of the
// neighbours with ready[m] <= t, one bit per circuit end and one word per
// 64 ends (one word unless d > 64), and a slice whose mask is empty is
// skipped. Cost per pair: (latency in slices)·d compares instead of N-2.
// At h = HMax, destinations a lower level reaches in t_start are skipped
// (see RowTables).
//
// Tie selection replays the rule of a scan over all intermediates in
// source-relative order (src+1, src+2, ... mod N): the first tied
// intermediate is the primary; a later one leaving more slack in the final
// slice (smaller hl) demotes the primary into the tie list; the rest join
// the tie list under the MaxParallel-1 cap. A slice's neighbours of dst are
// sorted ascending (NewCalculator), so that order is the mask's bits of
// peers >= src, then those of peers < src, each ascending; a pair two
// switches realize in the slice is the same peer twice, adjacent in the run
// with the lower switch first, and counts once. A mask with one bit set has
// one order, so the peers are compared with src only when more bits are
// set. That order is what makes tie selection equivariant under ToR
// rotation — on a rotation-symmetric schedule the row of src is exactly the
// rotated row of ToR 0, which the symmetric PathSet build relies on.
//
// Every cell it records is checked against the schedule once, here, where
// its slice's circuits were just read: the primary's uplink must reach it from
// dst in that slice, read off the schedule's own run of (slice, dst), which
// sits at the index of the sorted run just scanned. Every switch's matching
// is an involution (NewCalculator asserts it), so that is the uplink joining
// the primary to dst. A cell that fails sets the row's sticky error.
func (c *Calculator) extendRow(t *RowTables, h int) {
	n, d, s := t.N, c.F.Sched.D, c.F.Sched.S
	src, sched := t.Src, c.F.Sched.Peers()
	prevEnd, prevHL := t.end[h-1], t.hLast[h-1]
	curEnd, curLast, curHL, curUp, par := t.end[h], t.last[h], t.hLast[h], t.up[h], t.par[h]
	maxTies := c.MaxParallel - 1
	ready, mask := t.readySlices(prevEnd, prevHL, c.HSlice), t.mask
	// Every level-(h-1) path ends within (h-1)·S slices and every circuit
	// reappears within S.
	limit := int32(h) * int32(s)
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
		base, rel, cyc := 0, int32(0), cyc0
		for {
			base = (cyc*n + dst) * d
			run := c.peers[base : base+d]
			if len(mask) == 1 { // d <= 64: one word, without readyMask's word loop
				if mask[0] = readyWord(run, ready, rel); mask[0] != 0 {
					break
				}
			} else if readyMask(mask, run, ready, rel) {
				break
			}
			if rel++; rel >= limit {
				panic("core: pair never connected in schedule")
			}
			if cyc++; cyc == s {
				cyc = 0
			}
		}
		at := t.StartSlice + int64(rel)
		// Reuse the tie list's backing array from the previous starting
		// slice computed on this scratch.
		ties := par[dst][:0]
		bestLast, bestHL, bestUp := int32(-1), int8(0), uint16(0)
		prevMid := int32(-1)
		set := 0
		for _, w := range mask {
			set += bits.OnesCount64(w)
		}
		// Pass 0 takes the eligible peers >= src, pass 1 those below it;
		// one eligible end needs no order. Each word's peers ascend, so
		// those below src are the word's lowest set bits.
		for pass := 0; pass < min(set, 2); pass++ {
			for k, w := range mask {
				lo := base + k*64
				if set > 1 {
					from := w
					for from != 0 && int(c.peers[lo+bits.TrailingZeros64(from)]) < src {
						from &= from - 1
					}
					if pass == 0 {
						w = from
					} else {
						w &^= from
					}
				}
				for ; w != 0; w &= w - 1 {
					i := lo + bits.TrailingZeros64(w)
					mid := c.peers[i]
					if mid == prevMid {
						continue // the second switch realizing this pair
					}
					prevMid = mid
					hl := int8(1)
					if prevEnd[mid] == at {
						hl = prevHL[mid] + 1
					}
					switch {
					case bestLast < 0:
						bestLast, bestHL, bestUp = mid, hl, c.peerUp[i]
					case hl < bestHL:
						// Prefer the variant leaving slack in the final
						// slice; demote the old primary to a tie.
						ties = appendTie(ties, bestLast, maxTies)
						bestLast, bestHL, bestUp = mid, hl, c.peerUp[i]
					default:
						ties = appendTie(ties, mid, maxTies)
					}
				}
			}
		}
		if sched[base+int(bestUp)] != bestLast && t.err == nil {
			t.err = notPeerError(dst, int(bestLast), int(bestUp), cyc, n, d, s)
		}
		curEnd[dst] = at
		curLast[dst] = bestLast
		curHL[dst] = bestHL
		curUp[dst] = bestUp
		par[dst] = ties
	}
}

// readySlices fills the scratch's ready array for one level: for each
// intermediate m, the first slice relative to t_start in which the
// level-(h-1) path to m can take one more hop, MaxInt32 where it has none
// (see extendRow).
func (t *RowTables) readySlices(prevEnd []int64, prevHL []int8, hSlice int) []int32 {
	ready := t.ready
	for m, e := range prevEnd {
		switch {
		case e < 0:
			ready[m] = math.MaxInt32
		case int(prevHL[m]) >= hSlice:
			ready[m] = int32(e-t.StartSlice) + 1
		default:
			ready[m] = int32(e - t.StartSlice)
		}
	}
	return ready
}

// readyMask fills mask, one word per 64 circuit ends of run, with the ends
// eligible in slice rel — bit k of word j is set when ready[run[64j+k]] <=
// rel — and reports whether any bit is set.
func readyMask(mask []uint64, run, ready []int32, rel int32) bool {
	var any uint64
	for j := range mask {
		mask[j] = readyWord(run[j*64:min(j*64+64, len(run))], ready, rel)
		any |= mask[j]
	}
	return any != 0
}

// readyWord is one word of readyMask: the eligible ends of a run of at most
// 64. ready and rel are non-negative int32, so ready-rel-1 cannot overflow
// and its sign bit is the test.
func readyWord(run, ready []int32, rel int32) uint64 {
	var w uint64
	for k, m := range run {
		// k < 64; the mask spares the shift its out-of-range guard.
		w |= uint64(uint32(ready[m]-rel-1)>>31) << (k & 63)
	}
	return w
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
