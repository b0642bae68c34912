// Pathstudy: Fig 5-style offline analytics — group sizes, path diversity
// over the circuit cycle, edge-disjointness, hop-count distributions, and
// the switch-resource footprint the paths compile into (Table 2).
package main

import (
	"fmt"

	"ucmp/internal/analysis"
	"ucmp/internal/core"
	"ucmp/internal/switchres"
	"ucmp/internal/topo"
)

func main() {
	cfg := topo.Scaled()
	cfg.NumToRs, cfg.Uplinks = 32, 4
	fab := topo.MustFabric(cfg, "round-robin", 1)
	ps := core.BuildPathSet(fab, 0.5)

	st := analysis.Analyze(ps)
	fmt.Printf("UCMP paths on a %d-ToR fabric (%d slices/cycle):\n", cfg.NumToRs, fab.Sched.S)
	fmt.Printf("  mean paths per group:      %.2f\n", st.MeanGroupSize)
	fmt.Printf("  multi-path share:          %.1f%%\n", st.MultiPathShare*100)
	fmt.Printf("  edge-disjoint paths:       %.1f%%\n", st.EdgeDisjointShare*100)
	fmt.Printf("  mean unique paths / cycle: %.1f\n", st.MeanPathsPerCycle)
	fmt.Printf("  mean hop count:            %.2f\n", st.MeanHops)

	fmt.Println("\nhop-count distribution:")
	for _, h := range analysis.SortedKeys(st.HopHist) {
		total := 0
		for _, c := range st.HopHist {
			total += c
		}
		fmt.Printf("  %d hops: %5.1f%%\n", h, 100*float64(st.HopHist[h])/float64(total))
	}

	// The same paths compiled into ToR lookup tables (§6.2, Table 2).
	u := switchres.ComputeExact(fab, 0.5)
	fmt.Println("\nswitch resource footprint (ToR 0's compiled table):")
	fmt.Printf("  priority queues per port: %d\n", u.QueuesPerPort)
	fmt.Printf("  global flow buckets:      %d (6-bit DSCP allows 64)\n", u.Buckets)
	fmt.Printf("  routing entries per ToR:  %d (%d without range collapse)\n", u.PackedEntriesPerToR, u.NaiveEntriesPerToR)
	fmt.Printf("  SRAM usage:               %d B, %.3f%%\n", u.PackedSRAMBytes, u.PackedSRAMPct)

	// Path diversity under an alternative random schedule (Fig 16).
	fab2 := topo.MustFabric(cfg, "random", 7)
	st2 := analysis.Analyze(core.BuildPathSet(fab2, 0.5))
	fmt.Println("\nsame fabric, random schedule (Fig 16):")
	fmt.Printf("  mean paths per group: %.2f, edge-disjoint %.1f%%\n",
		st2.MeanGroupSize, st2.EdgeDisjointShare*100)
}
