package harness

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ucmp/internal/core"
	"ucmp/internal/failure"
	"ucmp/internal/netsim"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
	"ucmp/internal/transport"
)

// quickBase returns a very small run for test speed.
func quickBase() SimConfig {
	cfg := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	cfg.Duration = 1 * sim.Millisecond
	cfg.Horizon = 6 * sim.Millisecond
	cfg.MaxFlowSize = 8 << 20
	return cfg
}

func TestRunBasic(t *testing.T) {
	res, err := Run(quickBase())
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched == 0 {
		t.Fatal("no flows generated")
	}
	if res.CompletionRate < 0.8 {
		t.Fatalf("completion rate %.2f too low (drops=%d)", res.CompletionRate, res.Counters.DroppedPackets)
	}
	if res.Efficiency <= 0 || res.Efficiency > 1 {
		t.Fatalf("efficiency %v out of range", res.Efficiency)
	}
}

// TestBaselinePathSetReported: a KSP or Opera run reports the store its
// router plans from — one slot per (slice, src, dst) of its own schedule —
// and VLB, which has no store, reports none.
func TestBaselinePathSetReported(t *testing.T) {
	for _, r := range []RoutingKind{KSP5, Opera5, VLB} {
		cfg := quickBase()
		cfg.Routing, cfg.Transport = r, transport.NDP
		cfg.Duration, cfg.Horizon = 200*sim.Microsecond, sim.Millisecond
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if r != VLB {
			f := topo.MustFabric(cfg.Topo, ScheduleFor(r), cfg.Seed)
			n := f.Sched.N
			want = f.Sched.S * n * (n - 1)
		}
		if i := res.PathSet; i.Groups != want || (want > 0) != (i.StoreBytes > 0) {
			t.Fatalf("%s: path set %+v, want %d groups", r, i, want)
		}
	}
}

func TestRunUnknownRouting(t *testing.T) {
	cfg := quickBase()
	cfg.Routing = "bogus"
	if _, err := Run(cfg); err == nil {
		t.Fatal("bogus routing accepted")
	}
	cfg = quickBase()
	cfg.Workload = "bogus"
	if _, err := Run(cfg); err == nil {
		t.Fatal("bogus workload accepted")
	}
	cfg = quickBase()
	cfg.CongestionThreshold = -5
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative congestion threshold accepted")
	}
	// An unknown transport used to panic inside Stack.Attach, after the
	// fabric and path set were built.
	cfg = quickBase()
	cfg.Transport = "bogus"
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), `unknown transport "bogus"`) || !strings.Contains(err.Error(), "rotor") {
		t.Fatalf("bogus transport: err = %v, want one naming it and the valid list", err)
	}
}

// CheckpointEvery without a directory used to write nothing and say nothing.
func TestCheckpointEveryWithoutDirNoted(t *testing.T) {
	cfg := quickBase()
	cfg.CheckpointEvery = 100 * sim.Microsecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := "checkpointing off: CheckpointEvery set without CheckpointDir"; res.ResumeNote != want {
		t.Fatalf("ResumeNote = %q, want %q", res.ResumeNote, want)
	}
}

func TestTable1Report(t *testing.T) {
	r := Table1()
	s := r.String()
	for _, want := range []string{"140.0", "68.0", "60.8", "325.0", "8.2", "min-cost"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table 1 report missing %q:\n%s", want, s)
		}
	}
}

func TestTable3Report(t *testing.T) {
	r := Table3([]Table3Row{{1, 108, 6}, {1, 324, 6}})
	s := r.String()
	if !strings.Contains(s, "II") {
		t.Fatalf("expected case II rows:\n%s", s)
	}
	// (1us, 108, 6) -> S=5, Q=5 per the paper.
	if !strings.Contains(s, "5") {
		t.Fatalf("missing S/Q values:\n%s", s)
	}
}

func TestTable2Scaled(t *testing.T) {
	rep, rows := Table2([]Table2Row{{108, 6}})
	if len(rows) != 1 {
		t.Fatal("missing row")
	}
	u := rows[0]
	if u.QueuesPerPort != 18 {
		t.Fatalf("queues/port=%d, want 18", u.QueuesPerPort)
	}
	if u.Buckets < 5 || u.Buckets > 64 {
		t.Fatalf("buckets=%d out of DSCP-plausible range", u.Buckets)
	}
	if u.PackedEntriesPerToR < 2000 || u.PackedEntriesPerToR > 40000 {
		t.Fatalf("entries/ToR=%d implausible (paper: 9.5K)", u.PackedEntriesPerToR)
	}
	if u.PackedEntriesPerToR > u.NaiveEntriesPerToR {
		t.Fatalf("entries/ToR=%d above the naive %d", u.PackedEntriesPerToR, u.NaiveEntriesPerToR)
	}
	if u.PackedSRAMPct <= 0 || u.PackedSRAMPct > 10 {
		t.Fatalf("SRAM%%=%v implausible", u.PackedSRAMPct)
	}
	_ = rep.String()
}

func TestFig5aScaled(t *testing.T) {
	fab := topo.MustFabric(topo.Scaled(), "round-robin", 1)
	ps := core.BuildPathSet(fab, 0.5)
	rep, st := Fig5a(ps)
	if st.MeanGroupSize < 1.5 {
		t.Fatalf("mean group size %.2f too small", st.MeanGroupSize)
	}
	if st.MultiPathShare < 0.5 {
		t.Fatalf("multi-path share %.2f too small", st.MultiPathShare)
	}
	if st.EdgeDisjointShare < 0.5 {
		t.Fatalf("edge-disjoint share %.2f too small", st.EdgeDisjointShare)
	}
	_ = rep.String()
}

func TestFig5bScaled(t *testing.T) {
	fab := topo.MustFabric(topo.Scaled(), "round-robin", 1)
	ps := core.BuildPathSet(fab, 0.5)
	rep, dists := Fig5b(ps)
	if len(dists) != 5 {
		t.Fatalf("want 5 schemes, got %d", len(dists))
	}
	byName := map[string]float64{}
	for _, d := range dists {
		byName[d.Name] = d.Mean
	}
	// Paper shape: UCMP has the lowest mean hop count; k=5 exceeds k=1;
	// Opera exceeds KSP at the same k.
	if byName["ucmp"] > byName["ksp-1"] {
		t.Errorf("UCMP mean hops %.2f above KSP-1 %.2f", byName["ucmp"], byName["ksp-1"])
	}
	if byName["ksp-5"] < byName["ksp-1"] {
		t.Errorf("KSP-5 hops %.2f below KSP-1 %.2f", byName["ksp-5"], byName["ksp-1"])
	}
	if byName["opera-1"] < byName["ksp-1"] {
		t.Errorf("Opera-1 hops %.2f below KSP-1 %.2f", byName["opera-1"], byName["ksp-1"])
	}
	// Pinned means: each baseline row counts its KSP/Opera path store, which
	// holds exactly the paths Yen's algorithm finds per slice and ToR pair.
	for name, want := range map[string]float64{
		"ucmp":    1.992393026941363,
		"opera-1": 3.9285714285714284,
		"opera-5": 7.315126050420168,
		"ksp-1":   2.34,
		"ksp-5":   4.055666666666666,
	} {
		if got := byName[name]; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s mean hops %.15g, want %.15g", name, got, want)
		}
	}
	_ = rep.String()
}

func TestFig12abcScaled(t *testing.T) {
	fab := topo.MustFabric(topo.Scaled(), "round-robin", 1)
	ps := core.BuildPathSet(fab, 0.5)
	rep, out := Fig12abc(ps, 1)
	for label, rows := range out {
		for _, b := range rows {
			if b.Affected == 0 {
				t.Errorf("%s: no affected paths", label)
			}
			var total float64
			for c := range b.Count {
				total += b.Share(netsim.RecoveryClass(c))
			}
			if total < 0.999 || total > 1.001 {
				t.Errorf("%s: shares sum to %v", label, total)
			}
		}
	}
	_ = rep.String()
}

func TestFig14Probabilities(t *testing.T) {
	rep, out := Fig14()
	row := out[[2]int{108, 6}]
	if len(row) != 6 {
		t.Fatal("want 6 c values")
	}
	// Monotone decreasing, and below 1e-10 by c=5 (S=5 for (108,6)).
	for i := 1; i < len(row); i++ {
		if row[i] > row[i-1] {
			t.Fatalf("P not decreasing: %v", row)
		}
	}
	if row[4] >= core.DefaultUnvisitedThreshold {
		t.Fatalf("P(c=5)=%v not below threshold", row[4])
	}
	if row[3] < core.DefaultUnvisitedThreshold {
		t.Fatalf("P(c=4)=%v already below threshold; S would be 4", row[3])
	}
	_ = rep.String()
}

func TestFig6QuickPair(t *testing.T) {
	base := quickBase()
	schemes := []Scheme{
		{"ucmp+dctcp", UCMP, transport.DCTCP, false},
		{"vlb", VLB, transport.DCTCP, false},
	}
	results, err := RunSchemes(nil, base, "websearch", schemes)
	if err != nil {
		t.Fatal(err)
	}
	rep := Fig6FCT(results, "websearch")
	if len(results) != 2 {
		t.Fatal("missing results")
	}
	eff := Fig6Efficiency(results, "websearch")
	if !strings.Contains(eff.String(), "vlb") {
		t.Fatal("efficiency report missing scheme")
	}
	// Paper shape: UCMP beats VLB on bandwidth efficiency for web search.
	if results[0].Result.Efficiency <= results[1].Result.Efficiency {
		t.Errorf("UCMP efficiency %.3f not above VLB %.3f",
			results[0].Result.Efficiency, results[1].Result.Efficiency)
	}
	_ = rep.String()
}

func TestFig8Quick(t *testing.T) {
	rep, out, err := Fig8Bucketing(nil, quickBase())
	if err != nil {
		t.Fatal(err)
	}
	if out[0] == nil || out[1] == nil {
		t.Fatal("missing variants")
	}
	_ = rep.String()
}

func TestFig10Quick(t *testing.T) {
	rep, out, err := Fig10Alpha(nil, quickBase(), []float64{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatal("missing alphas")
	}
	_ = rep.String()
}

func TestFig12dQuick(t *testing.T) {
	rep, out, err := Fig12d(nil, quickBase(), []float64{0.0, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// Connectivity preserved under 5% link failures (paper claim).
	if out[1].CompletionRate < 0.7 {
		t.Fatalf("completion under 5%% link failures: %.2f", out[1].CompletionRate)
	}
	_ = rep.String()
}

func TestFig9ReconfDegradation(t *testing.T) {
	rep, out, err := Fig9Reconf(nil, quickBase(), []sim.Time{10 * sim.Nanosecond, 10 * sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatal("missing delays")
	}
	// A 20% duty-cycle loss must not IMPROVE p50 FCT dramatically.
	p50a := out[0].Collector.Percentile(0.5)
	p50b := out[1].Collector.Percentile(0.5)
	if p50b*3 < p50a {
		t.Errorf("10us reconf p50 %v implausibly better than 10ns %v", p50b, p50a)
	}
	_ = rep.String()
}

func TestFig11SliceSweep(t *testing.T) {
	rep, out, err := Fig11Slice(nil, quickBase(), []sim.Time{50 * sim.Microsecond, 300 * sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	// Longer slices raise short-flow FCT (more circuit waiting, Fig 11b).
	shortA := out[0].Collector.BySize(coarseEdges)[0].AvgFCT
	shortB := out[1].Collector.BySize(coarseEdges)[0].AvgFCT
	if shortB < shortA {
		t.Errorf("300us slice short-flow FCT %v below 50us %v", shortB, shortA)
	}
	_ = rep.String()
}

func TestFig7UtilizationOrdering(t *testing.T) {
	schemes := []Scheme{
		{Name: "ucmp", Routing: UCMP, Transport: transport.DCTCP},
		{Name: "vlb", Routing: VLB, Transport: transport.DCTCP},
	}
	results, err := RunSchemes(nil, quickBase(), "websearch", schemes)
	if err != nil {
		t.Fatal(err)
	}
	rep := Fig7LinkUtil(results, "websearch")
	// VLB's 2-hop routing must load the core at least as much as UCMP
	// relative to delivered traffic: core/host ratio higher for VLB.
	ratio := func(r *Result) float64 {
		host := r.Collector.MeanUtil(1, func(s netsim.Sample) float64 { return s.TorToHostUtil })
		core := r.Collector.MeanUtil(1, func(s netsim.Sample) float64 { return s.TorToTorUtil })
		if host == 0 {
			return 0
		}
		return core / host
	}
	if ratio(results[1].Result) < ratio(results[0].Result) {
		t.Errorf("VLB core/host ratio %.2f below UCMP %.2f",
			ratio(results[1].Result), ratio(results[0].Result))
	}
	_ = rep.String()
}

func TestFig15Runner(t *testing.T) {
	schemes := []Scheme{{Name: "ucmp", Routing: UCMP, Transport: transport.DCTCP}}
	results, err := RunSchemes(nil, quickBase(), "websearch", schemes)
	if err != nil {
		t.Fatal(err)
	}
	rep := Fig15LoadBalance(results)
	j := results[0].Result.JainCumulative
	if j <= 0 || j > 1.0001 {
		t.Fatalf("Jain %v out of range", j)
	}
	_ = rep.String()
}

func TestRunWithHotspot(t *testing.T) {
	cfg := quickBase()
	cfg.Hotspot = 0.6
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched == 0 {
		t.Fatal("no flows")
	}
}

func TestRunBadPinPolicy(t *testing.T) {
	cfg := quickBase()
	cfg.PinPolicy = "nonsense"
	if _, err := Run(cfg); err == nil {
		t.Fatal("bad pin policy accepted")
	}
}

func TestScheduleFor(t *testing.T) {
	if ScheduleFor(Opera1) != "opera" || ScheduleFor(Opera5) != "opera" {
		t.Fatal("opera schedule")
	}
	if ScheduleFor(UCMP) != "round-robin" || ScheduleFor(VLB) != "round-robin" {
		t.Fatal("default schedule")
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{Title: "x"}
	r.Addf("a %d", 1)
	s := r.String()
	if !strings.Contains(s, "== x ==") || !strings.Contains(s, "a 1") {
		t.Fatalf("rendering: %q", s)
	}
}

// What feeds the Poisson generator is checked before anything is built: a
// negative load never returned (the arrival clock walked backwards), a zero
// load, duration or host count produced an empty result, a negative alpha
// ran, a hotspot share outside [0,1) was clamped or ignored. An explicit flow
// list skips those checks — the fields are then unused — and a horizon
// shorter than the duration stays legal. A negative horizon or sampling
// period ran silently with or without explicit flows and is refused either
// way.
func TestRunValidatesWorkloadInputs(t *testing.T) {
	base := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	base.Duration = 100 * sim.Microsecond
	replayFlows := []*netsim.Flow{netsim.NewFlow(1, 0, 3, 1<<16, 0)}
	for _, c := range []struct {
		field  string
		set    func(*SimConfig)
		replay bool // refused with an explicit flow list too
	}{
		{"Horizon=-1ns", func(c *SimConfig) { c.Horizon = -1 }, true},
		{"SampleEvery=-1ns", func(c *SimConfig) { c.SampleEvery = -1 }, true},
		{"Hotspot=2", func(c *SimConfig) { c.Hotspot = 2 }, false},
		{"Hotspot=1", func(c *SimConfig) { c.Hotspot = 1 }, false},
		{"Hotspot=-1", func(c *SimConfig) { c.Hotspot = -1 }, false},
		{"Hotspot=NaN", func(c *SimConfig) { c.Hotspot = math.NaN() }, false},
		{"Load=-1", func(c *SimConfig) { c.Load = -1 }, false},
		{"Load=0", func(c *SimConfig) { c.Load = 0 }, false},
		{"Load=NaN", func(c *SimConfig) { c.Load = math.NaN() }, false},
		{"HostsPerToR=0", func(c *SimConfig) { c.Topo.HostsPerToR = 0 }, false},
		{"Duration=0ns", func(c *SimConfig) { c.Duration = 0 }, false},
		{"Alpha=-1", func(c *SimConfig) { c.Alpha = -1 }, false},
		{"Alpha=+Inf", func(c *SimConfig) { c.Alpha = math.Inf(1) }, false},
	} {
		cfg := base
		c.set(&cfg)
		if res, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "harness: "+c.field) {
			t.Errorf("%s: Run returned (%v, %v), want an error naming the field", c.field, res != nil, err)
		}
		if c.replay {
			cfg.Flows = replayFlows
			if res, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "harness: "+c.field) {
				t.Errorf("%s with explicit flows: Run returned (%v, %v), want an error naming the field", c.field, res != nil, err)
			}
		}
	}
	probe := base
	probe.Horizon = 1
	if _, err := Run(probe); err != nil {
		t.Errorf("a 1 ns horizon under a 100 us duration was refused: %v", err)
	}
	replay := base
	replay.Load, replay.Duration = 0, 0
	replay.Flows = replayFlows
	if res, err := Run(replay); err != nil || res.Launched != 1 {
		t.Errorf("an explicit flow list with zero Load and Duration: %v", err)
	}
}

// A failure script that would silently run a different experiment is
// refused: a fraction that is NaN or outside [0,1] (the sampler clamps it
// to all or none), and a repair at or before the failure (Compile applies a
// same-instant down and up in insertion order, leaving the fabric healthy,
// and an earlier repair leaves the failure standing for good). A zero
// fraction draws nothing, so the static link failures of Fig 12d fail the
// same cables as sampling links alone from the seed.
func TestBuildFailureTimelineValidates(t *testing.T) {
	cfg := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	const us = sim.Microsecond
	for _, c := range []struct {
		name          string
		tor, link, sw float64
		down, repair  sim.Time
		err           string // "" = accepted
	}{
		{"link=1.5", 0, 1.5, 0, 0, -1, "link failure fraction 1.5 must lie in [0,1]"},
		{"link=-0.5", 0, -0.5, 0, 0, -1, "link failure fraction -0.5 must lie in [0,1]"},
		{"link=NaN", 0, math.NaN(), 0, 0, -1, "link failure fraction NaN must lie in [0,1]"},
		{"ToR=1.7", 1.7, 0, 0, 0, -1, "ToR failure fraction 1.7 must lie in [0,1]"},
		{"switch=-0.3", 0, 0, -0.3, 0, -1, "switch failure fraction -0.3 must lie in [0,1]"},
		{"repair at the failure", 0.25, 0, 0, 500 * us, 500 * us, "repair at 500.000us must come after the failure at 500.000us"},
		{"repair before the failure", 0.25, 0, 0, 500 * us, 100 * us, "repair at 100.000us must come after the failure at 500.000us"},
		{"all of every kind", 1, 1, 1, 0, -1, ""},
		{"repair after the failure", 0.25, 0, 0, 500 * us, 600 * us, ""},
		{"no repair", 0, 0.05, 0, 500 * us, -1, ""},
		{"nothing", 0, 0, 0, 0, -1, ""},
	} {
		tl, err := BuildFailureTimeline(cfg, c.tor, c.link, c.sw, c.down, c.repair)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.err != "" && (err == nil || err.Error() != "harness: "+c.err):
			t.Errorf("%s: error %v, want %q", c.name, err, "harness: "+c.err)
		case c.err == "" && tl.Empty() != (c.tor == 0 && c.link == 0 && c.sw == 0):
			t.Errorf("%s: timeline holds %d events", c.name, len(tl.Events()))
		}
	}

	fab, err := newFabricFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := BuildFailureTimeline(cfg, 0, 0.05, 0, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	links := failure.FromScenario(failure.NewScenario(fab).FailLinks(0.05, rand.New(rand.NewSource(cfg.Seed))), 0, -1)
	if got, want := tl.Events(), links.Events(); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("static link failures %v, want the links sampled alone from the seed %v", got, want)
	}
}
