package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ucmp/internal/topo"
)

// TestBuildPathSetParallelDeterminism checks the tentpole invariant of the
// parallel offline build: any worker count produces exactly the serial
// result — every group, the global threshold list, and the derived backup
// statistics — for all three schedule generators.
func TestBuildPathSetParallelDeterminism(t *testing.T) {
	for _, kind := range []string{"round-robin", "random", "opera"} {
		t.Run(kind, func(t *testing.T) {
			fab := topo.MustFabric(topo.Scaled(), kind, 1)
			serial := BuildPathSetOpts(fab, 0.5, BuildOptions{Workers: 1})
			par := BuildPathSetOpts(fab, 0.5, BuildOptions{Workers: 4})
			n := fab.Sched.N
			for ts := 0; ts < fab.Sched.S; ts++ {
				for src := 0; src < n; src++ {
					for dst := 0; dst < n; dst++ {
						if src == dst {
							continue
						}
						gs := serial.Group(ts, src, dst)
						gp := par.Group(ts, src, dst)
						if !reflect.DeepEqual(gs, gp) {
							t.Fatalf("group (%d,%d,%d) differs between serial and parallel build:\n%+v\nvs\n%+v",
								ts, src, dst, gs, gp)
						}
					}
				}
			}
			if !reflect.DeepEqual(serial.GlobalThresholds(), par.GlobalThresholds()) {
				t.Fatalf("global thresholds differ")
			}
			sg, sp := serial.SingleSliceShare()
			pg, pp := par.SingleSliceShare()
			if sg != pg || sp != pp {
				t.Fatalf("single-slice share differs: (%v,%v) vs (%v,%v)", sg, sp, pg, pp)
			}
		})
	}
}

// TestBuildPathSetDefaultMatchesSerial pins the default (GOMAXPROCS) worker
// count to the serial result too, whatever this machine's core count is.
func TestBuildPathSetDefaultMatchesSerial(t *testing.T) {
	fab := topo.MustFabric(topo.Scaled(), "round-robin", 1)
	serial := BuildPathSetOpts(fab, 0.5, BuildOptions{Workers: 1})
	def := BuildPathSet(fab, 0.5)
	if !reflect.DeepEqual(serial.GlobalThresholds(), def.GlobalThresholds()) {
		t.Fatalf("default build thresholds differ from serial")
	}
	for ts := 0; ts < fab.Sched.S; ts++ {
		for src := 0; src < fab.Sched.N; src++ {
			for dst := 0; dst < fab.Sched.N; dst++ {
				if src == dst {
					continue
				}
				if !reflect.DeepEqual(serial.Group(ts, src, dst), def.Group(ts, src, dst)) {
					t.Fatalf("group (%d,%d,%d) differs", ts, src, dst)
				}
			}
		}
	}
}

// TestComputeIntoReuseMatchesFresh runs the DP over all starting slices on
// one reused scratch and checks each level against a freshly allocated
// computation: scratch reuse must never leak state from a previous slice.
// Every cell is compared, the "not computed" ones too (the source's own
// column, the last level's pruned cells); tie lists are compared by content
// (a reused empty list and a fresh nil list are both "no ties").
func TestComputeIntoReuseMatchesFresh(t *testing.T) {
	fab := topo.MustFabric(topo.Scaled(), "random", 3)
	calc := NewCalculator(fab)
	var scratch *Tables
	for ts := 0; ts < fab.Sched.S; ts++ {
		scratch = calc.ComputeInto(ts, scratch)
		fresh := calc.Compute(ts)
		for src := range fresh.rows {
			if msg := diffRows(&scratch.rows[src], &fresh.rows[src]); msg != "" {
				t.Fatalf("ts=%d src=%d (reused vs fresh): %s", ts, src, msg)
			}
		}
	}
}

// diffRows compares two single-source DP rows cell by cell, every field,
// and describes the first difference ("" when equal).
func diffRows(a, b *RowTables) string {
	for h := 1; h <= b.HMax; h++ {
		for dst := range b.end[h] {
			if a.end[h][dst] != b.end[h][dst] {
				return fmt.Sprintf("h=%d dst=%d: end %d vs %d", h, dst, a.end[h][dst], b.end[h][dst])
			}
			if a.last[h][dst] != b.last[h][dst] {
				return fmt.Sprintf("h=%d dst=%d: last %d vs %d", h, dst, a.last[h][dst], b.last[h][dst])
			}
			if a.hLast[h][dst] != b.hLast[h][dst] {
				return fmt.Sprintf("h=%d dst=%d: hLast %d vs %d", h, dst, a.hLast[h][dst], b.hLast[h][dst])
			}
			if a.up[h][dst] != b.up[h][dst] {
				return fmt.Sprintf("h=%d dst=%d: up %d vs %d", h, dst, a.up[h][dst], b.up[h][dst])
			}
			if !slices.Equal(a.par[h][dst], b.par[h][dst]) {
				return fmt.Sprintf("h=%d dst=%d: ties %v vs %v", h, dst, a.par[h][dst], b.par[h][dst])
			}
		}
	}
	return ""
}
