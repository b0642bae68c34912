package harness

import (
	"fmt"
	"math/rand"

	"ucmp/internal/analysis"
	"ucmp/internal/core"
	"ucmp/internal/failure"
	"ucmp/internal/netsim"
	"ucmp/internal/routing"
	"ucmp/internal/sim"
	"ucmp/internal/switchres"
	"ucmp/internal/topo"
)

// Table1 reproduces the §5.1 worked uniform-cost example.
func Table1() *Report {
	m := core.CostModel{Alpha: 1, LinkBps: 100e9, SliceMicros: 5}
	rows := []struct {
		hops int
		lat  int64
	}{{1, 12}, {2, 3}, {3, 2}, {4, 1}}
	sizes := []int64{1e6, 1e5, 1e4}
	r := &Report{Title: "Table 1: uniform cost C(p,f) in us (alpha=1, B=100Gbps)"}
	r.Addf("%-8s %-12s %-14s %-14s %-14s", "hop(p)", "latency(us)", "C(p,1MB)", "C(p,100KB)", "C(p,10KB)")
	for _, row := range rows {
		r.Addf("%-8d %-12.0f %-14.1f %-14.1f %-14.1f",
			row.hops, m.LatencyMicros(row.lat),
			m.Cost(row.lat, row.hops, sizes[0]),
			m.Cost(row.lat, row.hops, sizes[1]),
			m.Cost(row.lat, row.hops, sizes[2]))
	}
	for _, s := range sizes {
		// Rows ascend in hops, so a strict < resolves ties to fewer hops.
		best := rows[0]
		for _, row := range rows[1:] {
			if m.Cost(row.lat, row.hops, s) < m.Cost(best.lat, best.hops, s) {
				best = row
			}
		}
		r.Addf("min-cost path for %8d B: %d hops (latency %d slices)", s, best.hops, best.lat)
	}
	return r
}

// Table2Row is one switch-resource configuration.
type Table2Row struct{ N, D int }

// Table2Scales are the paper's four configurations.
var Table2Scales = []Table2Row{{108, 6}, {324, 12}, {768, 24}, {1024, 32}}

// Table2 reproduces the hardware resource usage table (§8, Table 2), with
// both the naive per-bucket entry count and the bucket-range-collapsed one.
// Every column but queues/port is read off the built PathSet and ToR 0's
// compiled source-routing table (switchres.ComputeExact).
func Table2(scales []Table2Row) (*Report, []switchres.Usage) {
	r := &Report{Title: "Table 2: switch resource usage per RDCN scale"}
	r.Addf("%-12s %-9s %-9s %-13s %-13s %-8s", "(N,d)", "#Q/port", "#Buckets", "#Naive/ToR", "#Entries/ToR", "SRAM")
	var rows []switchres.Usage
	for _, sc := range scales {
		cfg := topo.PaperDefault()
		cfg.NumToRs, cfg.Uplinks, cfg.HostsPerToR = sc.N, sc.D, sc.D
		u := switchres.ComputeExact(topo.MustFabric(cfg, "round-robin", 1), 0.5)
		rows = append(rows, u)
		r.Addf("(%d, %d)%*s %-9d %-9d %-13d %-13d %.2f%%",
			sc.N, sc.D, 11-len2(sc.N, sc.D), "", u.QueuesPerPort, u.Buckets,
			u.NaiveEntriesPerToR, u.PackedEntriesPerToR, u.PackedSRAMPct)
	}
	return r, rows
}

func len2(n, d int) int {
	c := 4 // parens, comma, space
	for x := n; x > 0; x /= 10 {
		c++
	}
	for x := d; x > 0; x /= 10 {
		c++
	}
	return c
}

// Table3Row is one h_max bound configuration.
type Table3Row struct {
	SliceUs int
	N, D    int
}

// Table3Scales are the paper's six rows (Appendix B, Table 3).
var Table3Scales = []Table3Row{
	{1, 108, 6}, {1, 324, 6}, {2, 108, 6}, {2, 4320, 24}, {5, 1200, 12}, {10, 4320, 24},
}

// Table3 reproduces the Q(h_max) upper bounds.
func Table3(rows []Table3Row) *Report {
	r := &Report{Title: "Table 3: upper bounds of h_max"}
	r.Addf("%-10s %-12s %-8s %-9s %-6s %-4s %-8s", "slice", "(N,d)", "hslice", "hstatic", "case", "S", "Q(hmax)")
	for _, row := range rows {
		cfg := topo.PaperDefault()
		cfg.NumToRs, cfg.Uplinks = row.N, row.D
		cfg.SliceDuration = sim.Time(row.SliceUs) * sim.Microsecond
		hslice := cfg.HopsPerSlice()
		var hstatic int
		if row.N <= 1200 {
			sched := topo.RoundRobin(row.N, row.D)
			b := core.BoundHmax(cfg, sched)
			hstatic = b.HStatic
		} else {
			hstatic = core.HStaticSampled(row.N, row.D, 4, 1)
		}
		caseName := "I"
		s := 0
		q := hstatic
		if hslice < hstatic {
			caseName = "II"
			s = core.SpanSlices(row.N, row.D, core.DefaultUnvisitedThreshold)
			q = hslice * s
		}
		r.Addf("%-10s (%d,%d)%*s %-8d %-9d %-6s %-4d %-8d",
			sim.Time(row.SliceUs)*sim.Microsecond, row.N, row.D, 12-len2(row.N, row.D)+2, "",
			hslice, hstatic, caseName, s, q)
	}
	return r
}

// Fig5a reports UCMP path counts, diversity, and edge-disjointness.
func Fig5a(ps *core.PathSet) (*Report, analysis.PathStats) {
	st := analysis.Analyze(ps)
	r := &Report{Title: "Fig 5a: UCMP path numbers (" + ps.F.Sched.Kind + " schedule)"}
	r.Addf("mean paths per group:      %.2f (paper: 3.2)", st.MeanGroupSize)
	r.Addf("multi-path share:          %.1f%% (paper: 94.4%%)", st.MultiPathShare*100)
	r.Addf("edge-disjoint paths:       %.1f%% (paper: 93.2%%)", st.EdgeDisjointShare*100)
	r.Addf("mean unique paths / cycle: %.1f (paper: 47.9)", st.MeanPathsPerCycle)
	r.Addf("group size histogram:")
	for _, k := range analysis.SortedKeys(st.GroupSizes) {
		r.Addf("  %2d paths: %d groups", k, st.GroupSizes[k])
	}
	return r, st
}

// Fig16 is Fig5a under a randomly generated schedule.
func Fig16(cfg topo.Config, seed int64) (*Report, analysis.PathStats) {
	fab := topo.MustFabric(cfg, "random", seed)
	ps := core.BuildPathSet(fab, 0.5)
	rep, st := Fig5a(ps)
	rep.Title = "Fig 16: UCMP path numbers under a random schedule"
	return rep, st
}

// Fig5b compares hop-count distributions: UCMP vs Opera(k=1,5) and
// KSP(k=1,5), the baselines over every slice of the cycle. Each row counts
// the store its scheme's runs route on: ps for UCMP, core.BuildKSPPathSet on
// ps's fabric for KSP and on the Opera schedule of the same size for Opera.
func Fig5b(ps *core.PathSet) (*Report, []analysis.HopDist) {
	cfg := ps.F.Config
	operaFab := &topo.Fabric{Config: cfg, Sched: topo.Opera(cfg.NumToRs, cfg.Uplinks)}
	dists := []analysis.HopDist{analysis.NewHopDist("ucmp", hopHist(ps))}
	for _, spec := range []struct {
		name   string
		f      *topo.Fabric
		k      int
		stable bool
	}{
		{"opera-1", operaFab, 1, true},
		{"opera-5", operaFab, 5, true},
		{"ksp-1", ps.F, 1, false},
		{"ksp-5", ps.F, 5, false},
	} {
		kps := core.BuildKSPPathSet(spec.f, spec.k, spec.stable)
		dists = append(dists, analysis.NewHopDist(spec.name, hopHist(kps)))
	}

	r := &Report{Title: "Fig 5b: hop count distribution by routing scheme"}
	r.Addf("%-10s %-7s %-7s %-7s %-7s %-7s %-7s", "scheme", "1hop", "2hop", "3hop", "4hop", ">=5hop", "mean")
	for _, d := range dists {
		over := 0.0
		for h, s := range d.Share {
			if h >= 5 {
				over += s
			}
		}
		r.Addf("%-10s %-7.3f %-7.3f %-7.3f %-7.3f %-7.3f %-7.2f",
			d.Name, d.Share[1], d.Share[2], d.Share[3], d.Share[4], over, d.Mean)
	}
	r.Addf("(paper means: UCMP 2.32, KSP-1 2.80, KSP-5 3.61, Opera-1 3.11, Opera-5 4.45)")
	return r, dists
}

// ScheduleStats reports the path set's schedule — slice-graph diameters,
// direct-circuit coverage and waits — and the Eqn-1 latency of its UCMP
// paths by hop count.
func ScheduleStats(ps *core.PathSet) *Report {
	cfg, sched := ps.F.Config, ps.F.Sched
	st := analysis.Schedule(sched)
	r := &Report{Title: fmt.Sprintf("schedule statistics (%d ToRs, %d switches, %s)", cfg.NumToRs, cfg.Uplinks, sched.Kind)}
	r.Addf("slices/cycle: %d   cycle: %v", st.Slices, ps.F.CycleDuration())
	r.Addf("slice-graph diameter: %d..%d", st.MinDiameter, st.MaxDiameter)
	r.Addf("direct-circuit coverage: %d/%d pairs", st.CoveragePairs, st.TotalPairs)
	r.Addf("mean wait for a direct circuit: %.2f slices", st.MeanWait)
	lat := analysis.Latencies(ps)
	r.Addf("mean Eqn-1 latency over all UCMP paths: %.2f slices", lat.GlobalMeanLatency)
	for h := 1; h <= 16; h++ {
		if m, ok := lat.MeanLatency[h]; ok {
			r.Addf("  %2d-hop paths: mean %.2f, max %d slices", h, m, lat.MaxLatency[h])
		}
	}
	return r
}

// hopHist histograms the hop counts of every path of every group in ps.
func hopHist(ps *core.PathSet) map[int]int {
	hist := make(map[int]int)
	sched := ps.F.Sched
	for ts := 0; ts < sched.S; ts++ {
		for src := 0; src < sched.N; src++ {
			for dst := 0; dst < sched.N; dst++ {
				g := ps.View(ts, src, dst)
				for i, n := 0, g.NumEntries(); i < n; i++ {
					e := g.Entry(i)
					hist[e.HopCount] += e.NumPaths
				}
			}
		}
	}
	return hist
}

// Fig12abc classifies UCMP recovery under ToR, link, and circuit switch
// failures with the router's own §5.3 policy (routing.Classify): per
// failure fraction, the share of affected paths in each class.
func Fig12abc(ps *core.PathSet, seed int64) (*Report, map[string][]routing.Breakdown) {
	r := &Report{Title: "Fig 12a-c: UCMP recovery under failures"}
	out := make(map[string][]routing.Breakdown)
	run := func(label string, fracs []float64, apply func(sc *failure.Scenario, frac float64, rng *rand.Rand)) {
		r.Addf("%s failures:", label)
		r.Addf("  %-7s %-9s %-12s %-9s %-9s %-9s %-14s", "frac", "affected", "same-length", "shorter", "longer", "backup", "unrecoverable")
		for _, frac := range fracs {
			sc := failure.NewScenario(ps.F)
			apply(sc, frac, rand.New(rand.NewSource(seed)))
			b := routing.Classify(ps, routing.StaticHealth{Path: sc.PathOK, Tor: sc.TorOK})
			out[label] = append(out[label], b)
			r.Addf("  %-7.3f %-9d %-12.3f %-9.3f %-9.3f %-9.3f %-14.3f",
				frac, b.Affected, b.Share(netsim.RecoverySameLength), b.Share(netsim.RecoveryShorter),
				b.Share(netsim.RecoveryLonger), b.Share(netsim.RecoveryBackup), b.Share(netsim.RecoveryNone))
		}
	}
	run("ToR", []float64{0.02, 0.05, 0.10}, func(sc *failure.Scenario, f float64, rng *rand.Rand) { sc.FailToRs(f, rng) })
	run("link", []float64{0.02, 0.05, 0.10}, func(sc *failure.Scenario, f float64, rng *rand.Rand) { sc.FailLinks(f, rng) })
	d := float64(ps.F.Sched.D)
	run("switch", []float64{1 / d, 2 / d}, func(sc *failure.Scenario, f float64, rng *rand.Rand) { sc.FailSwitches(f, rng) })
	r.Addf("(backup = a 2-hop backup path; the paper's \"longer\" is longer + backup)")
	return r, out
}

// Fig14 prints P(unvisited ToRs) across topology scales.
func Fig14() (*Report, map[[2]int][]float64) {
	scales := [][2]int{{108, 6}, {324, 6}, {324, 12}, {1200, 12}, {1200, 24}, {4320, 24}}
	r := &Report{Title: "Fig 14: P(unvisited ToRs) vs time slices c"}
	out := make(map[[2]int][]float64)
	header := "  c:"
	for c := 1; c <= 6; c++ {
		header += "        " + string(rune('0'+c))
	}
	r.Lines = append(r.Lines, header)
	for _, s := range scales {
		row := make([]float64, 0, 6)
		line := ""
		for c := 1; c <= 6; c++ {
			p := core.PUnvisited(s[0], s[1], c)
			row = append(row, p)
			line += formatProb(p)
		}
		out[s] = row
		r.Addf("(%4d,%2d) %s", s[0], s[1], line)
	}
	return r, out
}

func formatProb(p float64) string {
	switch {
	case p > 1e-4:
		return "  " + trimFloat(p)
	default:
		return "  " + trimExp(p)
	}
}

func trimFloat(p float64) string { return fmt.Sprintf("%7.4f", p) }
func trimExp(p float64) string   { return fmt.Sprintf("%7.0e", p) }
