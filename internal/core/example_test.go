package core_test

import (
	"fmt"

	"ucmp/internal/core"
	"ucmp/internal/topo"
)

// ExampleCostModel reproduces two cells of the paper's Table 1.
func ExampleCostModel() {
	m := core.CostModel{Alpha: 1, LinkBps: 100e9, SliceMicros: 5}
	// A 1-hop path with 60us latency (12 slices) carrying a 1 MB flow:
	fmt.Printf("%.1f\n", m.Cost(12, 1, 1_000_000))
	// A 4-hop path with 5us latency (1 slice) carrying a 10 KB flow:
	fmt.Printf("%.1f\n", m.Cost(1, 4, 10_000))
	// Output:
	// 140.0
	// 8.2
}

// ExampleBuildPathSet shows offline path calculation and group inspection.
func ExampleBuildPathSet() {
	fab := topo.MustFabric(topo.Scaled(), "round-robin", 1)
	ps := core.BuildPathSet(fab, 0.5)
	g := ps.View(2, 0, 5) // src ToR 0 -> dst ToR 5, starting slice 2
	fmt.Println("entries:", g.NumEntries())
	first := g.Entry(0)
	fmt.Printf("%d hops, latency %d slices\n", first.HopCount, first.LatencySlices)
	// Output:
	// entries: 3
	// 1 hops, latency 4 slices
}

// ExampleFlowAger demonstrates flow aging: a growing byte count steps the
// bucket index monotonically upward (§5.1).
func ExampleFlowAger() {
	fab := topo.MustFabric(topo.Scaled(), "round-robin", 1)
	ps := core.BuildPathSet(fab, 0.5)
	ager := core.NewFlowAger(ps)
	prev := -1
	mono := true
	for _, sent := range []int64{0, 1 << 10, 1 << 20, 1 << 26, 1 << 30} {
		b := ager.Bucket(sent)
		if b < prev {
			mono = false
		}
		prev = b
	}
	fmt.Println("monotone:", mono)
	// Output:
	// monotone: true
}

// ExampleBoundHmax shows the Appendix B analysis for the paper's fabric
// with 1us slices.
func ExampleBoundHmax() {
	cfg := topo.PaperDefault()
	cfg.SliceDuration = 1000 // 1us
	sched := topo.RoundRobin(cfg.NumToRs, cfg.Uplinks)
	b := core.BoundHmax(cfg, sched)
	fmt.Println("case I:", b.CaseI)
	fmt.Println("S:", b.S, "Q:", b.Q)
	// Output:
	// case I: false
	// S: 5 Q: 5
}
