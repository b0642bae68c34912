// Command ucmppaths runs the offline analyses that need no packet
// simulation: UCMP path characteristics (Fig 5a/5b, Fig 16), failure
// recovery breakdowns (Fig 12a-c), switch resources (Table 2), h_max
// bounds (Table 3), and the balls-into-bins probabilities (Fig 14).
//
// By default it uses the paper's 108-ToR fabric; -tors/-uplinks scale it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ucmp/internal/analysis"
	"ucmp/internal/core"
	"ucmp/internal/harness"
	"ucmp/internal/topo"
)

// allExps lists every experiment id, in the order they run.
var allExps = []string{"fig5a", "fig5b", "fig12abc", "fig14", "fig16", "table2", "table3", "sched"}

// fabricExps are the experiments that run on the -tors/-uplinks fabric; the
// rest use fixed scales of their own.
var fabricExps = []string{"fig5a", "fig5b", "fig12abc", "fig16", "sched"}

// selectExps resolves the -exp list, every id of which must be known: a typo
// must not turn into an empty, successful run.
func selectExps(spec string) (map[string]bool, error) {
	known := map[string]bool{}
	for _, e := range allExps {
		known[e] = true
	}
	want := map[string]bool{}
	var unknown []string
	for _, e := range strings.Split(spec, ",") {
		e = strings.TrimSpace(e)
		if !known[e] {
			unknown = append(unknown, fmt.Sprintf("%q", e))
		}
		want[e] = true
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown experiment id %s (valid: %s)",
			strings.Join(unknown, ", "), strings.Join(allExps, ", "))
	}
	return want, nil
}

func main() {
	var (
		torsF    = flag.Int("tors", 108, "number of ToRs (even)")
		uplinksF = flag.Int("uplinks", 6, "uplinks per ToR")
		alphaF   = flag.Float64("alpha", 0.5, "UCMP weight factor")
		expF     = flag.String("exp", "fig5a,fig5b,fig12abc,fig14,table2,table3,fig16,sched", "comma-separated experiments: "+strings.Join(allExps, ", "))
		sampleF  = flag.Int("sample", 1, "baseline slice sampling stride for fig5b")
	)
	flag.Parse()
	want, err := selectExps(*expF)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ucmppaths: -exp: %v\n", err)
		os.Exit(2)
	}

	cfg := topo.PaperDefault()
	cfg.NumToRs = *torsF
	cfg.Uplinks = *uplinksF
	var fab *topo.Fabric
	for _, e := range fabricExps {
		if want[e] {
			if fab, err = topo.NewFabric(cfg, "round-robin", 1); err != nil {
				fmt.Fprintln(os.Stderr, "ucmppaths:", err)
				os.Exit(1)
			}
			break
		}
	}

	var ps *core.PathSet
	buildPS := func() *core.PathSet {
		if ps == nil {
			start := time.Now()
			ps = core.BuildPathSet(fab, *alphaF)
			fmt.Fprintf(os.Stderr, "(path set for %d ToRs built in %.1fs)\n", cfg.NumToRs, time.Since(start).Seconds())
		}
		return ps
	}

	if want["fig5a"] {
		rep, _ := harness.Fig5a(buildPS())
		fmt.Println(rep)
	}
	if want["fig5b"] {
		rep, _ := harness.Fig5b(buildPS(), *sampleF)
		fmt.Println(rep)
	}
	if want["fig12abc"] {
		rep, _ := harness.Fig12abc(buildPS(), 1)
		fmt.Println(rep)
	}
	if want["fig14"] {
		rep, _ := harness.Fig14()
		fmt.Println(rep)
	}
	if want["fig16"] {
		rep, _ := harness.Fig16(cfg, 7)
		fmt.Println(rep)
	}
	if want["table2"] {
		rep, _ := harness.Table2(harness.Table2Scales)
		fmt.Println(rep)
	}
	if want["table3"] {
		fmt.Println(harness.Table3(harness.Table3Scales))
	}
	if want["sched"] {
		st := analysis.Schedule(fab.Sched)
		fmt.Printf("== schedule statistics (%d ToRs, %d switches, %s) ==\n", cfg.NumToRs, cfg.Uplinks, fab.Sched.Kind)
		fmt.Printf("slices/cycle: %d   cycle: %v\n", st.Slices, fab.CycleDuration())
		fmt.Printf("slice-graph diameter: %d..%d\n", st.MinDiameter, st.MaxDiameter)
		fmt.Printf("direct-circuit coverage: %d/%d pairs\n", st.CoveragePairs, st.TotalPairs)
		fmt.Printf("mean wait for a direct circuit: %.2f slices\n", st.MeanWait)
		lat := analysis.Latencies(buildPS())
		fmt.Printf("mean Eqn-1 latency over all UCMP paths: %.2f slices\n", lat.GlobalMeanLatency)
		for h := 1; h <= 16; h++ {
			if m, ok := lat.MeanLatency[h]; ok {
				fmt.Printf("  %2d-hop paths: mean %.2f, max %d slices\n", h, m, lat.MaxLatency[h])
			}
		}
	}
}
