// Extensions: the §10 / §5.2 follow-up features layered on UCMP —
// congestion-aware path assignment under hotspots, a live α controller
// targeting a core-utilization setpoint, and MPTCP-style subflows striped
// over parallel UCMP paths.
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
	base.Duration = 2 * sim.Millisecond

	rep, _, err := harness.ExtensionCongestion(nil, base)
	check(err)
	fmt.Println(rep)

	rep2, _, err := harness.ExtensionAlphaController(base, 0.06)
	check(err)
	// The full trajectory is long; print the head and tail.
	lines := rep2.Lines
	fmt.Println("== " + rep2.Title + " ==")
	for i, l := range lines {
		if i < 6 || i >= len(lines)-3 {
			fmt.Println(l)
		} else if i == 6 {
			fmt.Println("  ...")
		}
	}
	fmt.Println()

	rep3, _, err := harness.ExtensionMPTCP(nil, base)
	check(err)
	fmt.Println(rep3)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
