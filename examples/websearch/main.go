// Websearch: a Fig 6a-style packet-level comparison — UCMP vs VLB vs KSP
// vs Opera under the web search trace, reporting FCT per flow-size bin and
// bandwidth efficiency.
package main

import (
	"fmt"
	"os"

	"ucmp/internal/harness"
	"ucmp/internal/sim"
	"ucmp/internal/transport"
)

func main() {
	base := harness.ScaledConfig(harness.UCMP, transport.DCTCP, "websearch")
	base.Duration = 3 * sim.Millisecond

	schemes := []harness.Scheme{
		{Name: "ucmp+dctcp", Routing: harness.UCMP, Transport: transport.DCTCP},
		{Name: "vlb+rotorlb", Routing: harness.VLB, Transport: transport.DCTCP},
		{Name: "ksp-1+dctcp", Routing: harness.KSP1, Transport: transport.DCTCP},
		{Name: "opera-1+ndp", Routing: harness.Opera1, Transport: transport.NDP},
	}

	results, err := harness.RunSchemes(nil, base, "websearch", schemes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(harness.Fig6FCT(results, "websearch"))
	fmt.Println(harness.Fig6Efficiency(results, "websearch"))

	// The paper's headline: UCMP has the lowest short-flow FCT and the
	// highest bandwidth efficiency.
	best := results[0]
	for _, r := range results[1:] {
		if r.Result.Efficiency > best.Result.Efficiency {
			best = r
		}
	}
	fmt.Printf("highest bandwidth efficiency: %s (%.3f)\n", best.Scheme.Name, best.Result.Efficiency)
}
