package harness

import (
	"strconv"
	"strings"
	"testing"

	"ucmp/internal/sim"
)

// The scaling sweep renders one row per fabric size, every permutation flow
// finishes, and each point's run reads the path set the point built rather
// than building a second one.
func TestScaleSweep(t *testing.T) {
	ns := []int{16, 32}
	rep, points, err := ScaleSweep(ScaleConfig{Ns: ns, D: 4, FlowSize: 16 << 10, Horizon: 2 * sim.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := map[int]int{}
	for _, line := range rep.Lines {
		if n, err := strconv.Atoi(strings.Fields(line + " -")[0]); err == nil {
			rows[n]++
		}
	}
	if len(points) != len(ns) {
		t.Fatalf("%d points for %d sizes", len(points), len(ns))
	}
	for i, p := range points {
		if p.N != ns[i] || rows[p.N] != 1 {
			t.Fatalf("point %d is N=%d with %d report rows, want N=%d with one", i, p.N, rows[p.N], ns[i])
		}
		if p.Flows != p.N || p.Finished != p.Flows {
			t.Errorf("N=%d: %d of %d flows finished, want all %d", p.N, p.Finished, p.Flows, p.N)
		}
		if p.PathSet.Warm || !p.Sim.PathSet.Warm {
			t.Errorf("N=%d: point build warm %v, run warm %v; want one cold build the run is served from",
				p.N, p.PathSet.Warm, p.Sim.PathSet.Warm)
		}
	}
}
