// Quickstart: build an RDCN fabric, run UCMP offline path calculation, and
// inspect a UCMP group — the 30-second tour of the core API.
package main

import (
	"fmt"

	"ucmp/internal/core"
	"ucmp/internal/topo"
)

func main() {
	// 1. Describe the fabric: 16 ToRs, 3 circuit switches, 50us slices.
	cfg := topo.Scaled()
	fab := topo.MustFabric(cfg, "round-robin", 1)
	fmt.Printf("fabric: %d ToRs, %d circuit switches, %d slices/cycle (%v each)\n",
		cfg.NumToRs, cfg.Uplinks, fab.Sched.S, cfg.SliceDuration)

	// 2. Offline path calculation (§4): one UCMP group per
	//    (src, dst, starting slice), alpha = 0.5.
	ps := core.BuildPathSet(fab, 0.5)
	bound := ps.Calc.Bound
	fmt.Printf("h_max bound: Q=%d (h_slice=%d, h_static=%d, case I=%v)\n",
		bound.Q, bound.HSlice, bound.HStatic, bound.CaseI)

	// 3. Inspect the group for ToR 0 -> ToR 5 starting in slice 2.
	g := ps.View(2, 0, 5)
	fmt.Printf("\nUCMP group (src=0, dst=5, t_start=2): %d paths\n", g.NumPaths())
	var path core.Path
	for i := 0; i < g.NumPaths(); i++ {
		g.Path(i).Fill(&path)
		fmt.Printf("  %d hops, latency %2d slices: %v\n", path.HopCount(), path.LatencySlices(), &path)
	}

	// 4. Online path assignment (§5): uniform cost picks by flow size. A
	//    known size's α-scaled value falls in the minimum-cost entry's bucket.
	fmt.Println("\npath assignment by flow size (uniform cost, Eqn. 2):")
	for _, size := range []int64{10 << 10, 1 << 20, 64 << 20} {
		e := g.Entry(g.EntryIndexForAged(ps.Model.AgedValue(size)))
		fmt.Printf("  %8d B -> %d-hop path (latency %d slices, cost %.1f us)\n",
			size, e.HopCount, e.LatencySlices, ps.Model.Cost(e.LatencySlices, e.HopCount, size))
	}

	// 5. Flow aging (§5.1): without knowing sizes, flows start on the
	//    minimum-latency path and step toward fewer hops as they send.
	ager := core.NewFlowAger(ps)
	fmt.Printf("\nflow aging over %d global buckets:\n", ager.NumBuckets())
	for _, sent := range []int64{0, 100 << 10, 10 << 20, 100 << 20} {
		b := ager.Bucket(sent)
		e := g.Entry(ager.EntryIndex(g, b))
		fmt.Printf("  after %9d B sent -> bucket %2d -> %d-hop path\n", sent, b, e.HopCount)
	}
}
