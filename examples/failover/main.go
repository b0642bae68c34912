// Failover: a Fig 12-style drill — inject ToR, link, and circuit-switch
// failures, classify every affected UCMP path's recovery with the router's
// §5.3 policy, then run traffic over a fabric with 5% of its uplink cables
// physically down.
package main

import (
	"fmt"
	"math/rand"
	"os"

	"ucmp/internal/core"
	"ucmp/internal/failure"
	"ucmp/internal/harness"
	"ucmp/internal/netsim"
	"ucmp/internal/routing"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
	"ucmp/internal/transport"
)

func main() {
	fab := topo.MustFabric(topo.Scaled(), "round-robin", 1)
	ps := core.BuildPathSet(fab, 0.5)

	fmt.Println("offline recovery classification (Fig 12a-c):")
	for _, tc := range []struct {
		label string
		mk    func() *failure.Scenario
	}{
		{"10% ToRs down", func() *failure.Scenario {
			return failure.NewScenario(fab).FailToRs(0.10, rand.New(rand.NewSource(1)))
		}},
		{"5% links down", func() *failure.Scenario {
			return failure.NewScenario(fab).FailLinks(0.05, rand.New(rand.NewSource(1)))
		}},
		{"1 of 3 switches down", func() *failure.Scenario {
			return failure.NewScenario(fab).FailSwitches(0.3, rand.New(rand.NewSource(1)))
		}},
	} {
		sc := tc.mk()
		b := routing.Classify(ps, routing.StaticHealth{Path: sc.PathOK, Tor: sc.TorOK})
		fmt.Printf("  %-22s affected %5d/%d  same %.2f  shorter %.2f  longer %.2f  backup %.2f  unrecoverable %.3f\n",
			tc.label, b.Affected, b.Total,
			b.Share(netsim.RecoverySameLength), b.Share(netsim.RecoveryShorter),
			b.Share(netsim.RecoveryLonger), b.Share(netsim.RecoveryBackup), b.Share(netsim.RecoveryNone))
	}

	fmt.Println("\nlive traffic with 5% faulty links (Fig 12d):")
	base := harness.ScaledConfig(harness.UCMP, transport.DCTCP, "websearch")
	base.Duration = 2 * sim.Millisecond
	rep, _, err := harness.Fig12d(nil, base, []float64{0, 0.05})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(rep)
}
