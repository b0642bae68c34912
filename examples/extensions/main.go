// Extensions: MPTCP-style subflows striped over parallel UCMP paths, the
// §10 follow-up feature layered on UCMP. Striping lowers the > 1 MB mean
// FCT at some cost in bandwidth efficiency (EXPERIMENTS.md, "Extensions").
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

	rep, _, err := harness.ExtensionMPTCP(nil, base)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(rep)
}
