// Datamining: a Fig 6b-style run with heavy-tailed flows — UCMP enables
// latency relaxation (§4.3) so long flows spread over relaxed 2-hop paths
// via the RotorLB machinery, while short flows keep regular UCMP paths.
package main

import (
	"fmt"
	"os"

	"ucmp/internal/harness"
	"ucmp/internal/sim"
	"ucmp/internal/transport"
)

func main() {
	base := harness.ScaledConfig(harness.UCMP, transport.NDP, "datamining")
	base.Duration = 3 * sim.Millisecond
	base.MaxFlowSize = 32 << 20

	schemes := []harness.Scheme{
		{Name: "ucmp+ndp (relax)", Routing: harness.UCMP, Transport: transport.NDP, Relax: true},
		{Name: "vlb+rotorlb", Routing: harness.VLB, Transport: transport.NDP},
		{Name: "opera-1", Routing: harness.Opera1, Transport: transport.NDP},
	}

	results, err := harness.RunSchemes(nil, base, "datamining", schemes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(harness.Fig6FCT(results, "datamining"))
	fmt.Println(harness.Fig6Efficiency(results, "datamining"))

	fmt.Println("flow classing under UCMP latency relaxation:")
	fmt.Println("  flows >= 15 MB ride relaxed 2-hop paths (RotorLB machinery);")
	fmt.Println("  shorter flows keep regular minimum-uniform-cost UCMP paths.")
	for _, r := range results {
		fmt.Printf("  %-18s efficiency %.3f, completion %.0f%%\n",
			r.Scheme.Name, r.Result.Efficiency, r.Result.CompletionRate*100)
	}
}
