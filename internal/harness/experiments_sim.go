package harness

import (
	"ucmp/internal/metrics"
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

// RunSchemes executes one run per scheme of workload wl over a base config:
// the grid Fig 6, 7, 15 and 17 all render from. Sampling defaults to every
// 500 µs, which the link-utilization and load-balance figures read and the
// others ignore. Schemes are independent simulations; with Parallel set
// they run concurrently, each filling its preassigned result slot.
func RunSchemes(base SimConfig, wl string, schemes []Scheme) ([]SchemeResult, error) {
	base.Workload = wl
	if base.SampleEvery == 0 {
		base.SampleEvery = 500 * sim.Microsecond
	}
	out := make([]SchemeResult, len(schemes))
	err := forEach(len(schemes), func(i int) error {
		sc := schemes[i]
		cfg := base
		cfg.Routing = sc.Routing
		cfg.Transport = sc.Transport
		cfg.Relax = sc.Relax
		cfg.ScheduleKind = ScheduleFor(sc.Routing)
		res, err := Run(cfg)
		if err != nil {
			return err
		}
		out[i] = SchemeResult{Scheme: sc, Result: res}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Fig6FCT reports FCT per flow-size class (Fig 6a web search / 6b data
// mining) over RunSchemes' grid for workload wl.
func Fig6FCT(results []SchemeResult, wl string) *Report {
	r := &Report{Title: "Fig 6 FCT vs flow size, " + wl + " (avg FCT per size bin)"}
	r.Addf("%-14s %-10s %-10s %-10s %-10s %-9s %-7s", "scheme", "<=10KB", "<=100KB", "<=1MB", ">1MB", "complete", "reroute")
	for _, sr := range results {
		bins := coarseBins(sr.Result.Collector)
		r.Addf("%-14s %-10s %-10s %-10s %-10s %-9.2f %-7.4f",
			sr.Scheme.Name, fmtT(bins[0]), fmtT(bins[1]), fmtT(bins[2]), fmtT(bins[3]),
			sr.Result.CompletionRate, sr.Result.ReroutedFrac)
	}
	return r
}

// coarseBins averages FCT within 4 coarse size classes.
func coarseBins(c *metrics.Collector) [4]sim.Time {
	edges := []int64{0, 10 << 10, 100 << 10, 1 << 20, 1 << 62}
	var sums [4]sim.Time
	var counts [4]int
	for _, fr := range c.Flows {
		for i := 0; i < 4; i++ {
			if fr.Size > edges[i] && fr.Size <= edges[i+1] {
				sums[i] += fr.FCT
				counts[i]++
				break
			}
		}
	}
	var out [4]sim.Time
	for i := range out {
		if counts[i] > 0 {
			out[i] = sums[i] / sim.Time(counts[i])
		}
	}
	return out
}

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
func Fig8Bucketing(base SimConfig) (*Report, [2]*Result, error) {
	base.Workload = "websearch"
	base.Routing = UCMP
	base.Transport = transport.DCTCP
	variants := []bool{true, false}
	var out [2]*Result
	if err := forEach(len(variants), func(i int) error {
		cfg := base
		cfg.AccurateFlowSize = variants[i]
		res, err := Run(cfg)
		if err != nil {
			return err
		}
		out[i] = res
		return nil
	}); err != nil {
		return nil, out, err
	}
	r := &Report{Title: "Fig 8: accurate flow size vs flow bucketing (UCMP+DCTCP, web search)"}
	r.Addf("%-18s %-10s %-10s %-10s %-10s %-8s", "variant", "<=10KB", "<=100KB", "<=1MB", ">1MB", "p99")
	for i, res := range out {
		name := "flow bucketing"
		if variants[i] {
			name = "accurate size"
		}
		bins := coarseBins(res.Collector)
		r.Addf("%-18s %-10s %-10s %-10s %-10s %-8s",
			name, fmtT(bins[0]), fmtT(bins[1]), fmtT(bins[2]), fmtT(bins[3]),
			res.Collector.Percentile(0.99))
	}
	return r, out, nil
}

// Fig9Reconf sweeps the reconfiguration delay.
func Fig9Reconf(base SimConfig, delays []sim.Time) (*Report, []*Result, error) {
	base.Workload = "websearch"
	base.Routing = UCMP
	base.Transport = transport.DCTCP
	out := make([]*Result, len(delays))
	if err := forEach(len(delays), func(i int) error {
		cfg := base
		cfg.Topo.ReconfDelay = delays[i]
		res, err := Run(cfg)
		if err != nil {
			return err
		}
		out[i] = res
		return nil
	}); err != nil {
		return nil, nil, err
	}
	r := &Report{Title: "Fig 9: FCT under reconfiguration delays (UCMP+DCTCP)"}
	r.Addf("%-10s %-10s %-10s %-10s %-10s %-10s", "reconf", "duty", "<=10KB", "<=100KB", "<=1MB", ">1MB")
	for _, res := range out {
		bins := coarseBins(res.Collector)
		r.Addf("%-10s %-10.3f %-10s %-10s %-10s %-10s",
			res.Config.Topo.ReconfDelay, res.Config.Topo.DutyCycle(),
			fmtT(bins[0]), fmtT(bins[1]), fmtT(bins[2]), fmtT(bins[3]))
	}
	return r, out, nil
}

// Fig10Alpha sweeps the weight factor α (Fig 10a/10b).
func Fig10Alpha(base SimConfig, alphas []float64) (*Report, []*Result, error) {
	base.Workload = "websearch"
	base.Routing = UCMP
	base.Transport = transport.DCTCP
	if base.SampleEvery == 0 {
		base.SampleEvery = 500 * sim.Microsecond
	}
	out := make([]*Result, len(alphas))
	if err := forEach(len(alphas), func(i int) error {
		cfg := base
		cfg.Alpha = alphas[i]
		res, err := Run(cfg)
		if err != nil {
			return err
		}
		out[i] = res
		return nil
	}); err != nil {
		return nil, nil, err
	}
	r := &Report{Title: "Fig 10: weight factor alpha (UCMP+DCTCP, web search)"}
	r.Addf("%-7s %-14s %-12s %-10s %-10s %-10s", "alpha", "ToR-ToR util", "efficiency", "<=10KB", "<=100KB", ">1MB")
	for _, res := range out {
		bins := coarseBins(res.Collector)
		util := res.Collector.MeanUtil(1, func(s netsim.Sample) float64 { return s.TorToTorUtil })
		r.Addf("%-7.2f %-14.3f %-12.3f %-10s %-10s %-10s",
			res.Config.Alpha, util, res.Efficiency, fmtT(bins[0]), fmtT(bins[1]), fmtT(bins[3]))
	}
	r.Addf("(larger alpha -> shorter paths -> lower core utilization, Fig 10a)")
	return r, out, nil
}

// Fig11Slice sweeps the time slice duration (Fig 11a/11b).
func Fig11Slice(base SimConfig, durs []sim.Time) (*Report, []*Result, error) {
	base.Workload = "websearch"
	base.Routing = UCMP
	base.Transport = transport.DCTCP
	out := make([]*Result, len(durs))
	if err := forEach(len(durs), func(i int) error {
		cfg := base
		cfg.Topo.SliceDuration = durs[i]
		res, err := Run(cfg)
		if err != nil {
			return err
		}
		out[i] = res
		return nil
	}); err != nil {
		return nil, nil, err
	}
	r := &Report{Title: "Fig 11: time slice duration (UCMP+DCTCP, web search)"}
	r.Addf("%-10s %-12s %-10s %-10s %-10s %-8s", "slice", "efficiency", "<=10KB", "<=100KB", ">1MB", "reroute")
	for _, res := range out {
		bins := coarseBins(res.Collector)
		r.Addf("%-10s %-12.3f %-10s %-10s %-10s %-8.4f",
			res.Config.Topo.SliceDuration, res.Efficiency,
			fmtT(bins[0]), fmtT(bins[1]), fmtT(bins[3]), res.ReroutedFrac)
	}
	return r, out, nil
}

// Fig12d runs UCMP under physical link failures.
func Fig12d(base SimConfig, fracs []float64) (*Report, []*Result, error) {
	base.Workload = "websearch"
	base.Routing = UCMP
	base.Transport = transport.DCTCP
	out := make([]*Result, len(fracs))
	if err := forEach(len(fracs), func(i int) error {
		cfg := base
		cfg.LinkFailFrac = fracs[i]
		res, err := Run(cfg)
		if err != nil {
			return err
		}
		out[i] = res
		return nil
	}); err != nil {
		return nil, nil, err
	}
	r := &Report{Title: "Fig 12d: FCT under faulty links (UCMP+DCTCP, web search)"}
	r.Addf("%-8s %-10s %-10s %-10s %-10s %-9s", "faulty", "<=10KB", "<=100KB", "<=1MB", ">1MB", "complete")
	for _, res := range out {
		bins := coarseBins(res.Collector)
		r.Addf("%-8.2f %-10s %-10s %-10s %-10s %-9.2f",
			res.Config.LinkFailFrac, fmtT(bins[0]), fmtT(bins[1]), fmtT(bins[2]), fmtT(bins[3]),
			res.CompletionRate)
	}
	return r, out, nil
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
