package harness

import (
	"ucmp/internal/netsim"
	"ucmp/internal/plot"
	"ucmp/internal/sim"
	"ucmp/internal/transport"
)

// Scheme pairs a routing kind with its paper transport (§7.1).
type Scheme struct {
	Name      string
	Routing   RoutingKind
	Transport transport.Kind
	Relax     bool
}

// Fig6Schemes are the seven curves of Fig 6.
func Fig6Schemes(dataMining bool) []Scheme {
	return []Scheme{
		{"ucmp+dctcp", UCMP, transport.DCTCP, dataMining},
		{"ucmp+ndp", UCMP, transport.NDP, dataMining},
		{"vlb", VLB, transport.DCTCP, false}, // rotor-class carries all data
		{"ksp-1+dctcp", KSP1, transport.DCTCP, false},
		{"ksp-5+dctcp", KSP5, transport.DCTCP, false},
		{"opera-1+ndp", Opera1, transport.NDP, false},
		{"opera-5+ndp", Opera5, transport.NDP, false},
	}
}

// SchemeResult couples a scheme with its run result.
type SchemeResult struct {
	Scheme Scheme
	Result *Result
}

// exhibitConfig pins base to UCMP over DCTCP on workload wl, sampling the
// fabric every 500 µs unless SampleEvery is set: the run every simulation
// exhibit varies. The link-utilization and load-balance figures read the
// samples and the others ignore them; sampling leaves a run's flows as they
// are, and one default lets a Runner serve every exhibit asking for that
// run from a single simulation.
func exhibitConfig(base SimConfig, wl string) SimConfig {
	base.Workload = wl
	base.Routing = UCMP
	base.Transport = transport.DCTCP
	if base.SampleEvery == 0 {
		base.SampleEvery = 500 * sim.Microsecond
	}
	return base
}

// runVariants runs one copy of base per value, set applying the value to its
// copy, as one batch on r.
func runVariants[T any](r *Runner, base SimConfig, vals []T, set func(*SimConfig, T)) ([]*Result, error) {
	cfgs := make([]SimConfig, len(vals))
	for i, v := range vals {
		cfgs[i] = base
		set(&cfgs[i], v)
	}
	return r.Run(cfgs)
}

// RunSchemes executes one run per scheme of workload wl over a base config:
// the grid Fig 6, 7, 15 and 17 all render from. The grid's UCMP+DCTCP run
// and the base run of the other exhibits are one configuration, and each
// scheme's path set is the one its runs in the other grid read.
func RunSchemes(r *Runner, base SimConfig, wl string, schemes []Scheme) ([]SchemeResult, error) {
	res, err := runVariants(r, exhibitConfig(base, wl), schemes, func(c *SimConfig, sc Scheme) {
		c.Routing, c.Transport, c.Relax = sc.Routing, sc.Transport, sc.Relax
	})
	if err != nil {
		return nil, err
	}
	out := make([]SchemeResult, len(schemes))
	for i, sc := range schemes {
		out[i] = SchemeResult{Scheme: sc, Result: res[i]}
	}
	return out, nil
}

// Fig6FCT reports FCT per flow-size class (Fig 6a web search / 6b data
// mining) over RunSchemes' grid for workload wl.
func Fig6FCT(results []SchemeResult, wl string) *Report {
	r := &Report{Title: "Fig 6 FCT vs flow size, " + wl + " (avg FCT per size bin)"}
	r.Addf("%-14s %-10s %-10s %-10s %-10s %-9s %-7s", "scheme", "<=10KB", "<=100KB", "<=1MB", ">1MB", "complete", "reroute")
	for _, sr := range results {
		bins := sr.Result.Collector.BySize(coarseEdges)
		r.Addf("%-14s %-10s %-10s %-10s %-10s %-9.2f %-7.4f",
			sr.Scheme.Name, fmtT(bins[0].AvgFCT), fmtT(bins[1].AvgFCT), fmtT(bins[2].AvgFCT), fmtT(bins[3].AvgFCT),
			sr.Result.CompletionRate, sr.Result.ReroutedFrac)
	}
	return r
}

// coarseEdges are the four size classes the FCT tables print (<=10KB,
// <=100KB, <=1MB, >1MB) as Collector.BySize edges: bin i holds sizes in
// [edges[i], edges[i+1]).
var coarseEdges = []int64{1, 10<<10 + 1, 100<<10 + 1, 1<<20 + 1, 1 << 62}

func fmtT(t sim.Time) string {
	if t == 0 {
		return "-"
	}
	return t.String()
}

// Fig6Efficiency reports bandwidth efficiency per scheme (Fig 6c/6d).
func Fig6Efficiency(results []SchemeResult, wl string) *Report {
	r := &Report{Title: "Fig 6 bandwidth efficiency, " + wl}
	r.Addf("%-14s %-12s", "scheme", "efficiency")
	for _, sr := range results {
		r.Addf("%-14s %-12.3f", sr.Scheme.Name, sr.Result.Efficiency)
	}
	r.Addf("(1.0 = every byte crosses one ToR-ToR hop; VLB sits near 0.5)")
	labels := make([]string, len(results))
	values := make([]float64, len(results))
	for i, sr := range results {
		labels[i], values[i] = sr.Scheme.Name, sr.Result.Efficiency
	}
	for _, line := range plot.BarChart(labels, values, 28) {
		r.Addf("%s", line)
	}
	return r
}

// Fig7LinkUtil reports mean link utilizations over time per scheme (Fig 7
// web search; Fig 17 data mining) from the grid's samples.
func Fig7LinkUtil(results []SchemeResult, wl string) *Report {
	r := &Report{Title: "Fig 7/17 mean link utilization, " + wl}
	r.Addf("%-14s %-14s %-14s %s", "scheme", "ToR-to-host", "ToR-to-ToR", "core util over time")
	for _, sr := range results {
		col := sr.Result.Collector
		series := make([]float64, 0, len(col.Samples))
		for _, s := range col.Samples {
			series = append(series, s.TorToTorUtil)
		}
		r.Addf("%-14s %-14.3f %-14.3f %s",
			sr.Scheme.Name,
			col.MeanUtil(1, func(s netsim.Sample) float64 { return s.TorToHostUtil }),
			col.MeanUtil(1, func(s netsim.Sample) float64 { return s.TorToTorUtil }),
			plot.Sparkline(series))
	}
	return r
}

// Fig8Bucketing compares flow bucketing against accurate flow size stamping.
func Fig8Bucketing(r *Runner, base SimConfig) (*Report, []*Result, error) {
	names := []string{"accurate size", "flow bucketing"}
	out, err := runVariants(r, exhibitConfig(base, "websearch"), []bool{true, false}, func(c *SimConfig, accurate bool) {
		c.AccurateFlowSize = accurate
	})
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{Title: "Fig 8: accurate flow size vs flow bucketing (UCMP+DCTCP, web search)"}
	rep.Addf("%-18s %-10s %-10s %-10s %-10s %-8s", "variant", "<=10KB", "<=100KB", "<=1MB", ">1MB", "p99")
	for i, res := range out {
		bins := res.Collector.BySize(coarseEdges)
		rep.Addf("%-18s %-10s %-10s %-10s %-10s %-8s",
			names[i], fmtT(bins[0].AvgFCT), fmtT(bins[1].AvgFCT), fmtT(bins[2].AvgFCT), fmtT(bins[3].AvgFCT),
			res.Collector.Percentile(0.99))
	}
	return rep, out, nil
}

// Fig9Reconf sweeps the reconfiguration delay.
func Fig9Reconf(r *Runner, base SimConfig, delays []sim.Time) (*Report, []*Result, error) {
	out, err := runVariants(r, exhibitConfig(base, "websearch"), delays, func(c *SimConfig, d sim.Time) {
		c.Topo.ReconfDelay = d
	})
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{Title: "Fig 9: FCT under reconfiguration delays (UCMP+DCTCP)"}
	rep.Addf("%-10s %-10s %-10s %-10s %-10s %-10s", "reconf", "duty", "<=10KB", "<=100KB", "<=1MB", ">1MB")
	for _, res := range out {
		bins := res.Collector.BySize(coarseEdges)
		rep.Addf("%-10s %-10.3f %-10s %-10s %-10s %-10s",
			res.Config.Topo.ReconfDelay, res.Config.Topo.DutyCycle(),
			fmtT(bins[0].AvgFCT), fmtT(bins[1].AvgFCT), fmtT(bins[2].AvgFCT), fmtT(bins[3].AvgFCT))
	}
	return rep, out, nil
}

// Fig10Alpha sweeps the weight factor α (Fig 10a/10b).
func Fig10Alpha(r *Runner, base SimConfig, alphas []float64) (*Report, []*Result, error) {
	out, err := runVariants(r, exhibitConfig(base, "websearch"), alphas, func(c *SimConfig, a float64) {
		c.Alpha = a
	})
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{Title: "Fig 10: weight factor alpha (UCMP+DCTCP, web search)"}
	rep.Addf("%-7s %-14s %-12s %-10s %-10s %-10s", "alpha", "ToR-ToR util", "efficiency", "<=10KB", "<=100KB", ">1MB")
	for _, res := range out {
		bins := res.Collector.BySize(coarseEdges)
		util := res.Collector.MeanUtil(1, func(s netsim.Sample) float64 { return s.TorToTorUtil })
		rep.Addf("%-7.2f %-14.3f %-12.3f %-10s %-10s %-10s",
			res.Config.Alpha, util, res.Efficiency, fmtT(bins[0].AvgFCT), fmtT(bins[1].AvgFCT), fmtT(bins[3].AvgFCT))
	}
	rep.Addf("(larger alpha -> shorter paths -> lower core utilization, Fig 10a)")
	return rep, out, nil
}

// Fig11Slice sweeps the time slice duration (Fig 11a/11b).
func Fig11Slice(r *Runner, base SimConfig, durs []sim.Time) (*Report, []*Result, error) {
	out, err := runVariants(r, exhibitConfig(base, "websearch"), durs, func(c *SimConfig, d sim.Time) {
		c.Topo.SliceDuration = d
	})
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{Title: "Fig 11: time slice duration (UCMP+DCTCP, web search)"}
	rep.Addf("%-10s %-12s %-10s %-10s %-10s %-8s", "slice", "efficiency", "<=10KB", "<=100KB", ">1MB", "reroute")
	for _, res := range out {
		bins := res.Collector.BySize(coarseEdges)
		rep.Addf("%-10s %-12.3f %-10s %-10s %-10s %-8.4f",
			res.Config.Topo.SliceDuration, res.Efficiency,
			fmtT(bins[0].AvgFCT), fmtT(bins[1].AvgFCT), fmtT(bins[3].AvgFCT), res.ReroutedFrac)
	}
	return rep, out, nil
}

// Fig12d runs UCMP under physical link failures: each fraction of uplink
// cables down from t=0 for the whole run.
func Fig12d(r *Runner, base SimConfig, fracs []float64) (*Report, []*Result, error) {
	base = exhibitConfig(base, "websearch")
	cfgs := make([]SimConfig, len(fracs))
	for i, f := range fracs {
		tl, err := BuildFailureTimeline(base, 0, f, 0, 0, -1)
		if err != nil {
			return nil, nil, err
		}
		cfgs[i] = base
		cfgs[i].Failures = tl
	}
	out, err := r.Run(cfgs)
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{Title: "Fig 12d: FCT under faulty links (UCMP+DCTCP, web search)"}
	rep.Addf("%-8s %-10s %-10s %-10s %-10s %-9s", "faulty", "<=10KB", "<=100KB", "<=1MB", ">1MB", "complete")
	for i, res := range out {
		bins := res.Collector.BySize(coarseEdges)
		rep.Addf("%-8.2f %-10s %-10s %-10s %-10s %-9.2f",
			fracs[i], fmtT(bins[0].AvgFCT), fmtT(bins[1].AvgFCT), fmtT(bins[2].AvgFCT), fmtT(bins[3].AvgFCT),
			res.CompletionRate)
	}
	return rep, out, nil
}

// Fig15LoadBalance reports the Jain load-balance metric per scheme over the
// web-search grid.
func Fig15LoadBalance(results []SchemeResult) *Report {
	r := &Report{Title: "Fig 15: Jain load-balance metric (web search)"}
	r.Addf("%-14s %-12s %-14s", "scheme", "whole-run", "per-window")
	for _, sr := range results {
		r.Addf("%-14s %-12.3f %-14.3f", sr.Scheme.Name,
			sr.Result.JainCumulative,
			sr.Result.Collector.MeanUtil(1, func(s netsim.Sample) float64 { return s.JainLoadIndex }))
	}
	r.Addf("(1.0 = perfectly balanced; paper: VLB ~1.0, UCMP ~0.9)")
	return r
}
