package core

import (
	"fmt"
	"slices"
	"testing"

	"ucmp/internal/topo"
)

// oracleTables is the full-table layout the DP used before the
// slice-adjacency kernel: [n][src*N+dst].
type oracleTables struct {
	N          int
	StartSlice int64

	end   [][]int64
	last  [][]int32
	hLast [][]int8
	par   [][][]int32
}

// oracleCompute runs Alg. 1 with the full intermediate scan: every
// destination tries every intermediate ToR through NextDirect, O(h·N³) per
// starting slice. oracleExtend is the pre-kernel extension step kept
// verbatim; it is the reference extendRow must reproduce field for field.
func oracleCompute(c *Calculator, tstart int) *oracleTables {
	n := c.F.Sched.N
	t := &oracleTables{N: n, StartSlice: int64(tstart)}
	t.end = make([][]int64, c.HMax+1)
	t.last = make([][]int32, c.HMax+1)
	t.hLast = make([][]int8, c.HMax+1)
	t.par = make([][][]int32, c.HMax+1)
	for h := 1; h <= c.HMax; h++ {
		t.end[h] = make([]int64, n*n)
		t.last[h] = make([]int32, n*n)
		t.hLast[h] = make([]int8, n*n)
		t.par[h] = make([][]int32, n*n)
		for i := range t.end[h] {
			t.end[h][i] = -1
			t.last[h][i] = -1
		}
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			t.end[1][src*n+dst] = c.F.Sched.NextDirect(src, dst, t.StartSlice)
			t.hLast[1][src*n+dst] = 1
		}
	}
	for h := 2; h <= c.HMax; h++ {
		oracleExtend(c, t, h)
	}
	return t
}

func oracleExtend(c *Calculator, t *oracleTables, h int) {
	n := t.N
	sched := c.F.Sched
	prevEnd := t.end[h-1]
	prevHL := t.hLast[h-1]
	curEnd := t.end[h]
	curLast := t.last[h]
	curHL := t.hLast[h]
	for src := 0; src < n; src++ {
		row := src * n
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			bestEnd := int64(-1)
			var bestLast int32 = -1
			var bestHL int8
			ties := t.par[h][row+dst][:0]
			// Intermediates are scanned in source-relative order
			// (src+1, src+2, ... mod n).
			for k := 1; k < n; k++ {
				mid := src + k
				if mid >= n {
					mid -= n
				}
				if mid == dst {
					continue
				}
				e1 := prevEnd[row+mid]
				if e1 < 0 {
					continue
				}
				// Earliest last-hop circuit at or after arrival.
				e2 := sched.NextDirect(mid, dst, e1)
				hl := int8(1)
				if e2 == e1 {
					if int(prevHL[row+mid]) >= c.HSlice {
						// Slice hop budget exhausted: wait for the next
						// appearance of the circuit.
						e2 = sched.NextDirect(mid, dst, e1+1)
					} else {
						hl = prevHL[row+mid] + 1
					}
				}
				switch {
				case bestEnd < 0 || e2 < bestEnd:
					bestEnd, bestLast, bestHL = e2, int32(mid), hl
					ties = ties[:0]
				case e2 == bestEnd:
					if hl < bestHL {
						// Prefer the variant leaving slack in the final
						// slice; demote the old primary to a tie.
						ties = oracleAppendTie(ties, bestLast, c.MaxParallel-1)
						bestLast, bestHL = int32(mid), hl
					} else {
						ties = oracleAppendTie(ties, int32(mid), c.MaxParallel-1)
					}
				}
			}
			idx := row + dst
			curEnd[idx] = bestEnd
			curLast[idx] = bestLast
			curHL[idx] = bestHL
			t.par[h][idx] = ties
		}
	}
}

func oracleAppendTie(ties []int32, v int32, max int) []int32 {
	if len(ties) >= max {
		return ties
	}
	for _, x := range ties {
		if x == v {
			return ties
		}
	}
	return append(ties, v)
}

// diffOracleRow compares one source row of the kernel's output with the
// oracle's ("" when equal).
func diffOracleRow(row *RowTables, o *oracleTables, hmax int) string {
	base := row.Src * o.N
	for h := 1; h <= hmax; h++ {
		for dst := 0; dst < o.N; dst++ {
			i := base + dst
			switch {
			case row.end[h][dst] != o.end[h][i]:
				return fmt.Sprintf("h=%d dst=%d: end %d, oracle %d", h, dst, row.end[h][dst], o.end[h][i])
			case o.end[h][i] < 0:
			case row.last[h][dst] != o.last[h][i]:
				return fmt.Sprintf("h=%d dst=%d: last %d, oracle %d", h, dst, row.last[h][dst], o.last[h][i])
			case row.hLast[h][dst] != o.hLast[h][i]:
				return fmt.Sprintf("h=%d dst=%d: hLast %d, oracle %d", h, dst, row.hLast[h][dst], o.hLast[h][i])
			case !slices.Equal(row.par[h][dst], o.par[h][i]):
				return fmt.Sprintf("h=%d dst=%d: ties %v, oracle %v", h, dst, row.par[h][dst], o.par[h][i])
			}
		}
	}
	return ""
}

type oracleFabric struct {
	name string
	f    *topo.Fabric
	sym  bool // expected Rotation() witness
}

// oracleFabrics is the schedule axis of the differential: circle-method
// round-robin (non-power-of-two N, and d = 2), shuffled-matching Random,
// Opera's staggered non-power-of-two schedule, and the rotation-symmetric
// round-robin whose N/2 class puts the same pair on two switches of a slice.
func oracleFabrics() []oracleFabric {
	var out []oracleFabric
	add := func(n, d int, kind string, seed int64, sym bool) {
		cfg := topo.Scaled()
		cfg.NumToRs, cfg.Uplinks = n, d
		out = append(out, oracleFabric{
			name: fmt.Sprintf("%s-%dx%d-seed%d", kind, n, d, seed),
			f:    topo.MustFabric(cfg, kind, seed),
			sym:  sym,
		})
	}
	for _, n := range []int{6, 10, 14, 36} {
		add(n, 3, "round-robin", 0, false)
	}
	for seed := int64(1); seed <= 5; seed++ {
		add(12, 3, "random", seed, false)
	}
	add(12, 3, "opera", 0, false)
	for _, n := range []int{8, 16, 32} {
		add(n, 4, "round-robin", 0, true)
	}
	add(10, 2, "round-robin", 0, false)
	return out
}

// TestKernelMatchesFullScanOracle: the slice-adjacency kernel must produce
// exactly the DP state of the full intermediate scan — end slice, primary
// last hop, hops in the final slice and the retained tie list — for the
// full Tables and, per source, for a RowTables scratch reused across
// sources.
func TestKernelMatchesFullScanOracle(t *testing.T) {
	for _, of := range oracleFabrics() {
		sched := of.f.Sched
		if sched.Rotation() != of.sym {
			t.Fatalf("%s: Rotation() = %v", of.name, sched.Rotation())
		}
		base := NewCalculator(of.f)
		for _, hSlice := range []int{1, 2, base.HSlice} {
			for _, maxPar := range []int{1, 2, 4} {
				calc := NewCalculator(of.f)
				calc.HSlice, calc.MaxParallel = hSlice, maxPar
				// A binding hop budget needs more hops than the fabric's
				// own bound to show; a few levels past it also cover the
				// multi-slice scan.
				calc.HMax = base.HMax + 2
				var full *Tables
				var row *RowTables
				for ts := 0; ts < sched.S; ts++ {
					oracle := oracleCompute(calc, ts)
					full = calc.ComputeInto(ts, full)
					for src := 0; src < sched.N; src++ {
						where := fmt.Sprintf("%s hslice=%d maxpar=%d ts=%d src=%d", of.name, hSlice, maxPar, ts, src)
						if msg := diffOracleRow(&full.rows[src], oracle, calc.HMax); msg != "" {
							t.Fatalf("%s Tables: %s", where, msg)
						}
						row = calc.ComputeRowInto(ts, src, row)
						if msg := diffOracleRow(row, oracle, calc.HMax); msg != "" {
							t.Fatalf("%s RowTables: %s", where, msg)
						}
					}
				}
			}
		}
	}
}

// TestExhaustedBudgetWaitsForNextAppearance pins the edge the eligibility
// test of extendRow exists for: the intermediate arrives in slice t having
// used the whole slice hop budget while its circuit to dst is up in that
// very slice. The packet cannot ride it; the path must end at the circuit's
// next appearance, which opens a fresh slice (hLast = 1).
func TestExhaustedBudgetWaitsForNextAppearance(t *testing.T) {
	cfg := topo.Scaled()
	cfg.NumToRs, cfg.Uplinks = 4, 2
	f := topo.MustFabric(cfg, "round-robin", 1)
	calc := NewCalculator(f)
	calc.HSlice = 1
	calc.HMax = 3
	sched := f.Sched
	upIn := func(a, b int, abs int64) bool {
		return sched.SwitchFor(int(abs%int64(sched.S)), a, b) >= 0
	}
	found := 0
	for ts := 0; ts < sched.S; ts++ {
		tab := calc.Compute(ts)
		for src := 0; src < sched.N; src++ {
			row := &tab.rows[src]
			for dst := 0; dst < sched.N; dst++ {
				if dst == src {
					continue
				}
				for h := 2; h <= calc.HMax; h++ {
					mid := int(row.last[h][dst])
					arrive := row.end[h-1][mid]
					if int(row.hLast[h-1][mid]) < calc.HSlice || !upIn(mid, dst, arrive) {
						continue
					}
					found++
					next := arrive + 1
					for !upIn(mid, dst, next) {
						next++
					}
					if row.end[h][dst] != next || row.hLast[h][dst] != 1 {
						t.Fatalf("ts=%d %d->%d via %d (h=%d): arrives in %d with the budget spent and the circuit up; "+
							"end=%d hLast=%d, want end=%d hLast=1",
							ts, src, dst, mid, h, arrive, row.end[h][dst], row.hLast[h][dst], next)
					}
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no primary path waits out an exhausted slice budget on this fabric: the case is not exercised")
	}
}

// walkOracle is an Alg. 1 oracle that shares nothing with the DP: it
// enumerates every exactly-h-hop time-respecting walk src -> dst (each hop
// rides a circuit that is up in a slice no earlier than the arrival at its
// tail, at most hSlice hops per slice, no hop back into src; like the DP's
// prefixes it may pass through dst early) and keeps the minimum (end slice,
// hops in the final slice). Adjacency comes straight
// from the schedule's matchings.
type walkOracle struct {
	n, s, hSlice int
	up           [][]bool // [cyclic slice][a*n+b]
	src, dst     int
	horizon      int64
	bestEnd      int64
	bestHL       int
}

func newWalkOracle(sched *topo.Schedule, hSlice int) *walkOracle {
	w := &walkOracle{n: sched.N, s: sched.S, hSlice: hSlice, up: make([][]bool, sched.S)}
	for sl := range w.up {
		w.up[sl] = make([]bool, sched.N*sched.N)
		for sw := 0; sw < sched.D; sw++ {
			for a, b := range sched.MatchingAt(sl, sw) {
				w.up[sl][a*sched.N+b] = true
			}
		}
	}
	return w
}

func (w *walkOracle) min(tstart int64, src, dst, hops int) (end int64, hl int) {
	w.src, w.dst = src, dst
	w.horizon = tstart + int64(hops*w.s)
	w.bestEnd, w.bestHL = -1, 0
	w.walk(src, tstart, 0, hops)
	return w.bestEnd, w.bestHL
}

// walk extends a walk standing at cur, having arrived in slice `arrive`
// with `used` hops taken in that slice, by every possible next hop.
func (w *walkOracle) walk(cur int, arrive int64, used, hopsLeft int) {
	for next := 0; next < w.n; next++ {
		if next == cur || next == w.src || (hopsLeft == 1 && next != w.dst) {
			continue
		}
		for at := arrive; at < w.horizon; at++ {
			if !w.up[at%int64(w.s)][cur*w.n+next] {
				continue
			}
			hl := 1
			if at == arrive {
				if used >= w.hSlice {
					continue
				}
				hl = used + 1
			}
			if hopsLeft > 1 {
				w.walk(next, at, hl, hopsLeft-1)
			} else if w.bestEnd < 0 || at < w.bestEnd || (at == w.bestEnd && hl < w.bestHL) {
				w.bestEnd, w.bestHL = at, hl
			}
		}
	}
}

// TestDPMatchesWalkEnumeration checks the DP's minimum end slice (and the
// slack it reports in the final slice) per (t_start, src, dst, h) against
// the walk enumeration on fabrics small enough to enumerate.
func TestDPMatchesWalkEnumeration(t *testing.T) {
	for _, tc := range []struct {
		n, d int
		kind string
	}{{6, 2, "round-robin"}, {8, 2, "round-robin"}, {8, 3, "random"}, {8, 3, "opera"}, {8, 4, "round-robin"}} {
		cfg := topo.Scaled()
		cfg.NumToRs, cfg.Uplinks = tc.n, tc.d
		f := topo.MustFabric(cfg, tc.kind, 7)
		for _, hSlice := range []int{1, 2, NewCalculator(f).HSlice} {
			calc := NewCalculator(f)
			calc.HSlice, calc.HMax = hSlice, 3
			w := newWalkOracle(f.Sched, hSlice)
			for ts := 0; ts < f.Sched.S; ts++ {
				tab := calc.Compute(ts)
				for src := 0; src < tc.n; src++ {
					for dst := 0; dst < tc.n; dst++ {
						if src == dst {
							continue
						}
						for h := 1; h <= calc.HMax; h++ {
							wantEnd, wantHL := w.min(int64(ts), src, dst, h)
							gotEnd, gotHL := tab.EndSlice(h, src, dst), int(tab.rows[src].hLast[h][dst])
							if gotEnd != wantEnd || gotHL != wantHL {
								t.Fatalf("%s %dx%d hslice=%d ts=%d %d-hop %d->%d: DP (end=%d, hLast=%d), walks (end=%d, hLast=%d)",
									tc.kind, tc.n, tc.d, hSlice, ts, h, src, dst, gotEnd, gotHL, wantEnd, wantHL)
							}
						}
					}
				}
			}
		}
	}
}
