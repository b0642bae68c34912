package harness

import (
	"ucmp/internal/netsim"
	"ucmp/internal/topo"
)

// AblationPolicy isolates the uniform-cost policy (§3.1): full UCMP versus
// pinning all traffic to the minimum-latency path (ignoring the hop-count
// term) or to the fewest-hop path (ignoring the latency term). The paper
// argues the cost metric must unify both; this quantifies what each half
// alone loses.
func AblationPolicy(r *Runner, base SimConfig) (*Report, []*Result, error) {
	names := []string{"uniform cost (full UCMP)", "latency-only (pin min-latency)", "hops-only (pin fewest hops)"}
	pins := []string{"", "min-latency", "fewest-hops"}
	out, err := runVariants(r, exhibitConfig(base, "websearch"), pins, func(c *SimConfig, pin string) {
		c.PinPolicy = pin
	})
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{Title: "Ablation: uniform cost vs its latency-only / hops-only halves"}
	rep.Addf("%-32s %-10s %-10s %-12s %-9s", "policy", "<=10KB", ">1MB", "efficiency", "complete")
	for i, res := range out {
		bins := res.Collector.BySize(coarseEdges)
		rep.Addf("%-32s %-10s %-10s %-12.3f %-9.2f",
			names[i], fmtT(bins[0].AvgFCT), fmtT(bins[3].AvgFCT), res.Efficiency, res.CompletionRate)
	}
	rep.Addf("(expected: latency-only wins short-flow FCT but wastes bandwidth;")
	rep.Addf(" hops-only maximizes efficiency but inflates short-flow FCT;")
	rep.Addf(" uniform cost holds both ends simultaneously)")
	return rep, out, nil
}

// AblationParallel isolates the ECMP-style spreading over tied parallel
// paths (§5.1): keeping up to 4 ties versus exactly one path per hop count.
func AblationParallel(r *Runner, base SimConfig) (*Report, []*Result, error) {
	names := []string{"up to 4 tied paths", "single path per entry"}
	out, err := runVariants(r, exhibitConfig(base, "websearch"), []int{0, 1}, func(c *SimConfig, maxPar int) {
		c.MaxParallel = maxPar
	})
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{Title: "Ablation: parallel-path tie spreading"}
	rep.Addf("%-24s %-12s %-12s %-10s", "variant", "Jain load", "efficiency", "<=10KB")
	for i, res := range out {
		bins := res.Collector.BySize(coarseEdges)
		jain := res.Collector.MeanUtil(1, func(s netsim.Sample) float64 { return s.JainLoadIndex })
		rep.Addf("%-24s %-12.3f %-12.3f %-10s", names[i], jain, res.Efficiency, fmtT(bins[0].AvgFCT))
	}
	return rep, out, nil
}

// AblationSchedule isolates the expander-shuffled factorization (DESIGN.md):
// grouping consecutive circle-method matchings roughly doubles h_static,
// which inflates h_max and path latencies. This is an offline comparison.
func AblationSchedule(n, d int) *Report {
	r := &Report{Title: "Ablation: matching grouping vs slice-graph diameter"}
	shuffled := maxDiameterOf(n, d, true)
	consecutive := maxDiameterOf(n, d, false)
	r.Addf("%-28s h_static", "grouping")
	r.Addf("%-28s %d", "expander-shuffled (default)", shuffled)
	r.Addf("%-28s %d", "consecutive circle rounds", consecutive)
	if consecutive > shuffled {
		r.Addf("(shuffling wins: smaller diameter -> tighter Q(h_max) -> shorter paths)")
	}
	return r
}

// maxDiameterOf computes the max per-slice diameter when d matchings are
// grouped per slice, either from the expander-shuffled factorization or
// from consecutive circle-method rounds.
func maxDiameterOf(n, d int, shuffled bool) int {
	var rounds []topo.Matching
	if shuffled {
		rounds = topo.ExpanderFactorization(n)
	} else {
		rounds = topo.OneFactorization(n)
	}
	slices := (len(rounds) + d - 1) / d
	max := 0
	for sl := 0; sl < slices; sl++ {
		g := &topo.Graph{N: n, Adj: make([][]int, n)}
		for sw := 0; sw < d; sw++ {
			m := rounds[(sl*d+sw)%len(rounds)]
			for i := 0; i < n; i++ {
				g.Adj[i] = append(g.Adj[i], m[i])
			}
		}
		dd := g.Diameter()
		if dd < 0 {
			dd = n
		}
		if dd > max {
			max = dd
		}
	}
	return max
}
