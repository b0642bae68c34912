// Package ucmp's root benchmark suite regenerates every table and figure
// of the paper on the scaled configuration, one testing.B benchmark per
// exhibit (Fig 6's FCT and efficiency panels share one per workload, as they
// share one run per scheme), reporting the exhibit's key scalar as a custom
// metric.
// The full-scale variants live behind cmd/ucmpbench -full.
package ucmp_test

import (
	"testing"

	"ucmp/internal/core"
	"ucmp/internal/harness"
	"ucmp/internal/netsim"
	"ucmp/internal/sim"
	"ucmp/internal/testbed"
	"ucmp/internal/topo"
	"ucmp/internal/transport"
)

// benchBase is the quick simulation configuration shared by the
// figure benchmarks.
func benchBase() harness.SimConfig {
	cfg := harness.ScaledConfig(harness.UCMP, transport.DCTCP, "websearch")
	cfg.Duration = 1 * sim.Millisecond
	cfg.Horizon = 5 * sim.Millisecond
	cfg.MaxFlowSize = 8 << 20
	return cfg
}

func benchPathSet(b *testing.B) *core.PathSet {
	b.Helper()
	fab := topo.MustFabric(topo.Scaled(), "round-robin", 1)
	return core.BuildPathSet(fab, 0.5)
}

func BenchmarkTable1_UniformCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := harness.Table1(); len(r.Lines) == 0 {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkTable2_SwitchResources(b *testing.B) {
	var buckets int
	for i := 0; i < b.N; i++ {
		_, rows := harness.Table2([]harness.Table2Row{{N: 108, D: 6}})
		buckets = rows[0].Buckets
	}
	b.ReportMetric(float64(buckets), "buckets")
}

func BenchmarkTable3_HmaxBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Table3([]harness.Table3Row{{SliceUs: 1, N: 108, D: 6}, {SliceUs: 1, N: 324, D: 6}})
		if len(r.Lines) < 3 {
			b.Fatal("missing rows")
		}
	}
}

func BenchmarkFig5a_PathCounts(b *testing.B) {
	ps := benchPathSet(b)
	b.ResetTimer()
	var mean float64
	for i := 0; i < b.N; i++ {
		_, st := harness.Fig5a(ps)
		mean = st.MeanGroupSize
	}
	b.ReportMetric(mean, "paths/group")
}

func BenchmarkFig5b_HopCounts(b *testing.B) {
	ps := benchPathSet(b)
	b.ResetTimer()
	var mean float64
	for i := 0; i < b.N; i++ {
		_, dists := harness.Fig5b(ps)
		mean = dists[0].Mean
	}
	b.ReportMetric(mean, "ucmp-mean-hops")
}

func benchFig6(b *testing.B, wl string, relax bool) {
	schemes := []harness.Scheme{
		{Name: "ucmp", Routing: harness.UCMP, Transport: transport.DCTCP, Relax: relax},
		{Name: "vlb", Routing: harness.VLB, Transport: transport.DCTCP},
	}
	var eff float64
	for i := 0; i < b.N; i++ {
		results, err := harness.RunSchemes(nil, benchBase(), wl, schemes)
		if err != nil {
			b.Fatal(err)
		}
		_ = harness.Fig6FCT(results, wl)
		_ = harness.Fig6Efficiency(results, wl)
		eff = results[0].Result.Efficiency
	}
	b.ReportMetric(eff, "ucmp-efficiency")
}

// One grid serves a workload's FCT and efficiency panels (6a/6c, 6b/6d), so
// one benchmark times each workload's pair.
func BenchmarkFig6a_FCTWebSearch(b *testing.B)  { benchFig6(b, "websearch", false) }
func BenchmarkFig6b_FCTDataMining(b *testing.B) { benchFig6(b, "datamining", true) }

func BenchmarkFig7_LinkUtil(b *testing.B) {
	schemes := []harness.Scheme{{Name: "ucmp", Routing: harness.UCMP, Transport: transport.DCTCP}}
	var util float64
	for i := 0; i < b.N; i++ {
		results, err := harness.RunSchemes(nil, benchBase(), "websearch", schemes)
		if err != nil {
			b.Fatal(err)
		}
		_ = harness.Fig7LinkUtil(results, "websearch")
		util = results[0].Result.Collector.MeanUtil(1, func(s netsim.Sample) float64 { return s.TorToTorUtil })
	}
	b.ReportMetric(util, "tor-tor-util")
}

func BenchmarkFig8_Bucketing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := harness.Fig8Bucketing(nil, benchBase()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9_ReconfDelay(b *testing.B) {
	delays := []sim.Time{10 * sim.Nanosecond, 10 * sim.Microsecond}
	for i := 0; i < b.N; i++ {
		if _, _, err := harness.Fig9Reconf(nil, benchBase(), delays); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10_Alpha(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := harness.Fig10Alpha(nil, benchBase(), []float64{0.3, 0.7}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11_SliceDuration(b *testing.B) {
	durs := []sim.Time{10 * sim.Microsecond, 50 * sim.Microsecond}
	for i := 0; i < b.N; i++ {
		if _, _, err := harness.Fig11Slice(nil, benchBase(), durs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12_Failures(b *testing.B) {
	ps := benchPathSet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, out := harness.Fig12abc(ps, 1); len(out) != 3 {
			b.Fatal("missing failure classes")
		}
	}
}

func BenchmarkFig12d_FaultyLinks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := harness.Fig12d(nil, benchBase(), []float64{0.05}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13_Testbed(b *testing.B) {
	opts := testbed.Options{Requests: 10, Horizon: 10 * sim.Millisecond, Background: 2 << 20}
	var p50 float64
	for i := 0; i < b.N; i++ {
		out, err := testbed.RunSchemes(nil, []harness.Scheme{{Name: "ucmp", Routing: harness.UCMP, Transport: transport.TCP}}, opts)
		if err != nil {
			b.Fatal(err)
		}
		p50 = out[0].P50.Micros()
	}
	b.ReportMetric(p50, "p50-us")
}

func BenchmarkFig14_UnvisitedProb(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, out := harness.Fig14(); len(out) == 0 {
			b.Fatal("no probabilities")
		}
	}
}

func BenchmarkFig15_LoadBalance(b *testing.B) {
	schemes := []harness.Scheme{{Name: "ucmp", Routing: harness.UCMP, Transport: transport.DCTCP}}
	var jain float64
	for i := 0; i < b.N; i++ {
		results, err := harness.RunSchemes(nil, benchBase(), "websearch", schemes)
		if err != nil {
			b.Fatal(err)
		}
		_ = harness.Fig15LoadBalance(results)
		jain = results[0].Result.Collector.MeanUtil(1, func(s netsim.Sample) float64 { return s.JainLoadIndex })
	}
	b.ReportMetric(jain, "jain")
}

func BenchmarkFig16_RandomSchedule(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		_, st := harness.Fig16(topo.Scaled(), 7)
		mean = st.MeanGroupSize
	}
	b.ReportMetric(mean, "paths/group")
}

func BenchmarkFig17_LinkUtilDM(b *testing.B) {
	schemes := []harness.Scheme{{Name: "ucmp", Routing: harness.UCMP, Transport: transport.NDP, Relax: true}}
	for i := 0; i < b.N; i++ {
		results, err := harness.RunSchemes(nil, benchBase(), "datamining", schemes)
		if err != nil {
			b.Fatal(err)
		}
		_ = harness.Fig7LinkUtil(results, "datamining")
	}
}

// Ablation benchmarks for the design choices DESIGN.md calls out.

func BenchmarkAblation_PolicyHalves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := harness.AblationPolicy(nil, benchBase()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_ParallelTies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := harness.AblationParallel(nil, benchBase()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_ScheduleGrouping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rep := harness.AblationSchedule(64, 4); len(rep.Lines) == 0 {
			b.Fatal("empty")
		}
	}
}

// Extension benchmark (§10 MPTCP-style striping).

func BenchmarkExtension_MPTCP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := harness.ExtensionMPTCP(nil, benchBase()); err != nil {
			b.Fatal(err)
		}
	}
}

// Component microbenchmarks: the offline path calculation itself.

func BenchmarkOffline_PathSetBuild(b *testing.B) {
	fab := topo.MustFabric(topo.Scaled(), "round-robin", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BuildPathSet(fab, 0.5)
	}
}

// BenchmarkOffline_PathSetBuildSerial pins the build to one worker: the
// single-threaded cost of the build, independent of the machine's core
// count.
func BenchmarkOffline_PathSetBuildSerial(b *testing.B) {
	fab := topo.MustFabric(topo.Scaled(), "round-robin", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BuildPathSetOpts(fab, 0.5, core.BuildOptions{Workers: 1})
	}
}

func BenchmarkOffline_ComputeRow(b *testing.B) {
	benchComputeRow(b, topo.PaperDefault())
}

// benchComputeRow times one source row of the DP on one reused scratch, as
// the brute build runs it: the kernel, not the tables' allocation.
func benchComputeRow(b *testing.B, cfg topo.Config) {
	fab := topo.MustFabric(cfg, "round-robin", 1)
	calc := core.NewCalculator(fab)
	row := calc.ComputeRow(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row = calc.ComputeRowInto(i%fab.Sched.S, i%cfg.NumToRs, row)
	}
}

// Paper-size offline benchmarks: the 16-ToR builds above say nothing about
// fabrics whose N is not a power of two and that therefore take the brute
// O(S·N²)-group build — the paper's own (108,6) and the Table 2 row
// (324,12). Skipped under -short.

func BenchmarkOffline_PathSetBuild108(b *testing.B) { benchPathSetBuild(b, topo.PaperDefault()) }

func BenchmarkOffline_PathSetBuild324(b *testing.B) {
	cfg := topo.PaperDefault()
	cfg.NumToRs, cfg.Uplinks = 324, 12
	benchPathSetBuild(b, cfg)
}

// BenchmarkOffline_PathSetBuild324Serial is the (324,12) build on one
// worker: its single-threaded cost, apart from contention between cores.
func BenchmarkOffline_PathSetBuild324Serial(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-size fabric")
	}
	cfg := topo.PaperDefault()
	cfg.NumToRs, cfg.Uplinks = 324, 12
	fab := topo.MustFabric(cfg, "round-robin", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BuildPathSetOpts(fab, 0.5, core.BuildOptions{Workers: 1})
	}
}

// BenchmarkOffline_PathSetBuild768 is Table 2's largest brute-force build,
// (768,24): seconds per build and ~0.5 GB resident, so it is left out of
// `make bench-offline`.
func BenchmarkOffline_PathSetBuild768(b *testing.B) {
	cfg := topo.PaperDefault()
	cfg.NumToRs, cfg.Uplinks = 768, 24
	benchPathSetBuild(b, cfg)
}

// benchPathSetBuild times the whole build and reports the packed store's
// resident bytes per group next to it (core.PathSet.Footprint).
func benchPathSetBuild(b *testing.B, cfg topo.Config) {
	if testing.Short() {
		b.Skip("paper-size fabric")
	}
	fab := topo.MustFabric(cfg, "round-robin", 1)
	var ps *core.PathSet
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps = core.BuildPathSet(fab, 0.5)
	}
	b.ReportMetric(ps.Footprint().BytesPerGroup(), "B/group")
}

func BenchmarkOffline_ComputeRow324(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-size fabric")
	}
	cfg := topo.PaperDefault()
	cfg.NumToRs, cfg.Uplinks = 324, 12
	benchComputeRow(b, cfg)
}

// BenchmarkOffline_ComputeRow768 is one source row of Table 2's largest
// brute-force fabric, (768,24).
func BenchmarkOffline_ComputeRow768(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-size fabric")
	}
	cfg := topo.PaperDefault()
	cfg.NumToRs, cfg.Uplinks = 768, 24
	benchComputeRow(b, cfg)
}

// BenchmarkOffline_NewCalculator324 times the serial step before the build's
// worker pool starts at (324,12): h_static (the all-pairs slice-graph
// diameter) and the sorted peer table.
func BenchmarkOffline_NewCalculator324(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-size fabric")
	}
	cfg := topo.PaperDefault()
	cfg.NumToRs, cfg.Uplinks = 324, 12
	fab := topo.MustFabric(cfg, "round-robin", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.NewCalculator(fab)
	}
}
