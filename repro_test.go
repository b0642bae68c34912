// Package-level reproduction tests: the paper's headline claims as
// executable assertions. `go test -run TestPaper .` is the one-command
// answer to "does this repo reproduce the paper's shapes?"
package ucmp_test

import (
	"testing"

	"ucmp/internal/core"
	"ucmp/internal/harness"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
	"ucmp/internal/transport"
)

// TestPaperTable1Exact: the worked uniform-cost example is reproduced to
// the decimal.
func TestPaperTable1Exact(t *testing.T) {
	m := core.CostModel{Alpha: 1, LinkBps: 100e9, SliceMicros: 5}
	if got := m.Cost(12, 1, 1e6); got != 140.0 {
		t.Fatalf("C(1-hop, 1MB) = %v, want 140.0", got)
	}
	if got := m.Cost(1, 4, 1e4); got != 8.2 {
		t.Fatalf("C(4-hop, 10KB) = %v, want 8.2", got)
	}
}

// TestPaperTable3Exact: S and Q(h_max) for the paper's configurations.
func TestPaperTable3Exact(t *testing.T) {
	for _, row := range []struct{ n, d, s int }{
		{108, 6, 5}, {324, 6, 6}, {4320, 24, 4}, {1200, 12, 5},
	} {
		if got := core.SpanSlices(row.n, row.d, core.DefaultUnvisitedThreshold); got != row.s {
			t.Errorf("S(%d,%d) = %d, want %d", row.n, row.d, got, row.s)
		}
	}
}

// TestPaperHeadlineClaims runs UCMP and VLB on the scaled web search
// workload and checks the §1 claims: UCMP's short-flow FCT is at least an
// order of magnitude below VLB's, and its bandwidth efficiency is higher.
func TestPaperHeadlineClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("packet simulations")
	}
	base := harness.ScaledConfig(harness.UCMP, transport.DCTCP, "websearch")
	base.Duration = 2 * sim.Millisecond
	base.Horizon = 10 * sim.Millisecond
	base.MaxFlowSize = 16 << 20
	schemes := []harness.Scheme{
		{Name: "ucmp", Routing: harness.UCMP, Transport: transport.DCTCP},
		{Name: "vlb", Routing: harness.VLB, Transport: transport.DCTCP},
	}
	results, err := harness.RunSchemes(nil, base, "websearch", schemes)
	if err != nil {
		t.Fatal(err)
	}
	ucmpRes, vlbRes := results[0].Result, results[1].Result
	ucmpP50 := ucmpRes.Collector.Percentile(0.5)
	vlbP50 := vlbRes.Collector.Percentile(0.5)
	if ucmpP50*10 > vlbP50 {
		t.Errorf("UCMP p50 %v not an order of magnitude below VLB %v", ucmpP50, vlbP50)
	}
	if ucmpRes.Efficiency <= vlbRes.Efficiency {
		t.Errorf("UCMP efficiency %.3f not above VLB %.3f", ucmpRes.Efficiency, vlbRes.Efficiency)
	}
	// VLB's 2-hop routing pins its efficiency near 0.5.
	if vlbRes.Efficiency < 0.35 || vlbRes.Efficiency > 0.75 {
		t.Errorf("VLB efficiency %.3f far from 0.5", vlbRes.Efficiency)
	}
	// §6.3: recirculation stays a small fraction even at 40%% load.
	if ucmpRes.ReroutedFrac > 0.25 {
		t.Errorf("rerouted fraction %.3f excessive", ucmpRes.ReroutedFrac)
	}
}

// TestPaperPathShape checks §7.2 on the scaled fabric: small groups with
// high multi-path coverage, mean hops in the low-2s, singleton groups only
// in direct-circuit slices.
func TestPaperPathShape(t *testing.T) {
	fab := topo.MustFabric(topo.Scaled(), "round-robin", 1)
	ps := core.BuildPathSet(fab, 0.5)
	rep, st := harness.Fig5a(ps)
	_ = rep
	if st.MeanGroupSize < 2 || st.MeanGroupSize > 6 {
		t.Errorf("mean group size %.2f outside the paper's band", st.MeanGroupSize)
	}
	if st.MultiPathShare < 0.8 {
		t.Errorf("multi-path share %.2f below the paper's regime", st.MultiPathShare)
	}
	if st.MeanHops < 1.5 || st.MeanHops > 3.2 {
		t.Errorf("mean hops %.2f outside the paper's band (2.32)", st.MeanHops)
	}
	gs, _ := ps.SingleSliceShare()
	// Singleton share equals 1/S on a one-factorized round-robin schedule.
	want := 1.0 / float64(fab.Sched.S)
	if gs < want*0.8 || gs > want*1.2 {
		t.Errorf("singleton share %.3f, want ~%.3f (1/S)", gs, want)
	}
}
