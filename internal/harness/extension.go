package harness

import (
	"ucmp/internal/netsim"
	"ucmp/internal/sim"
	"ucmp/internal/transport"
)

// ExtensionCongestion evaluates the §10 congestion-aware extension under a
// hotspot-skewed web search workload: plain UCMP versus UCMP that steers
// around congested calendar queues within one bucket of uniform-cost
// slack.
func ExtensionCongestion(r *Runner, base SimConfig) (*Report, []*Result, error) {
	if base.Hotspot == 0 {
		base.Hotspot = 0.5
	}
	names := []string{"uniform cost only", "congestion-aware"}
	out, err := runVariants(r, exhibitConfig(base, "websearch"), []bool{false, true}, func(c *SimConfig, aware bool) {
		c.CongestionAware = aware
	})
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{Title: "Extension (§10): congestion-aware path assignment under hotspots"}
	rep.Addf("%-22s %-10s %-10s %-10s %-9s %-8s", "variant", "<=10KB", "<=100KB", "p99", "complete", "reroute")
	for i, res := range out {
		bins := coarseBins(res.Collector)
		rep.Addf("%-22s %-10s %-10s %-10s %-9.2f %-8.4f",
			names[i], fmtT(bins[0]), fmtT(bins[1]), res.Collector.Percentile(0.99),
			res.CompletionRate, res.ReroutedFrac)
	}
	rep.Addf("(steering within one bucket of slack relieves hot calendar queues)")
	return rep, out, nil
}

// ExtensionAlphaController runs UCMP with a live proportional controller
// driving α toward a target ToR-to-ToR utilization and reports the
// trajectory.
func ExtensionAlphaController(base SimConfig, targetUtil float64) (*Report, *Result, error) {
	res, trace, err := runWithAlphaController(exhibitConfig(base, "websearch"), targetUtil)
	if err != nil {
		return nil, nil, err
	}
	r := &Report{Title: "Extension (§5.2): live alpha controller"}
	r.Addf("target ToR-to-ToR utilization: %.2f", targetUtil)
	r.Addf("%-12s %-8s %-12s", "time", "alpha", "core util")
	for _, tr := range trace {
		r.Addf("%-12s %-8.3f %-12.3f", tr.at, tr.alpha, tr.util)
	}
	final := res.Collector.MeanUtil(len(res.Collector.Samples)/2, func(s netsim.Sample) float64 { return s.TorToTorUtil })
	r.Addf("second-half mean core utilization: %.3f", final)
	return r, res, nil
}

// ExtensionMPTCP compares single-path DCTCP with the MPTCP-style striped
// transport over UCMP's parallel paths (§10: "an adoption of MPTCP-like
// transport could benefit performance").
func ExtensionMPTCP(r *Runner, base SimConfig) (*Report, []*Result, error) {
	kinds := []transport.Kind{transport.DCTCP, transport.MPTCP}
	out, err := runVariants(r, exhibitConfig(base, "websearch"), kinds, func(c *SimConfig, k transport.Kind) {
		c.Transport = k
	})
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{Title: "Extension (§10): MPTCP-style subflows over parallel UCMP paths"}
	rep.Addf("%-14s %-10s %-10s %-10s %-12s", "transport", "<=100KB", "<=1MB", ">1MB", "efficiency")
	for i, res := range out {
		bins := coarseBins(res.Collector)
		rep.Addf("%-14s %-10s %-10s %-10s %-12.3f",
			string(kinds[i]), fmtT(bins[1]), fmtT(bins[2]), fmtT(bins[3]), res.Efficiency)
	}
	return rep, out, nil
}

type alphaTracePoint struct {
	at    sim.Time
	alpha float64
	util  float64
}

// runWithAlphaController is a cold serial harness run with a proportional α
// controller ticking on its engine. Because bucket thresholds are α-free
// (Eqn. 4), retuning only updates the run's own host-side aging map —
// exactly the paper's "broadcast new values of α to the hosts" — and never
// the path set, which warm fabrics share across runs. The control closure
// cannot be serialised or split across lookahead domains, so checkpointing
// and sharding are cleared, each with its note on the Result.
func runWithAlphaController(cfg SimConfig, target float64) (*Result, []alphaTracePoint, error) {
	if err := validateWorkload(cfg); err != nil {
		return nil, nil, err
	}
	cfg.SampleEvery = 0 // sampling is driven by the controller below
	var ckptNote, shardNote string
	if cfg.CheckpointDir != "" || cfg.CheckpointEvery > 0 || cfg.Resume {
		ckptNote = "checkpointing disabled: the alpha controller's tick is not serializable"
		cfg.CheckpointDir, cfg.CheckpointEvery, cfg.Resume = "", 0, false
	}
	if cfg.Shards > 1 {
		shardNote = "serial fallback: the alpha controller ticks on one engine"
		cfg.Shards = 0
	}
	st, err := buildSim(cfg, false)
	if err != nil {
		return nil, nil, err
	}

	var trace []alphaTracePoint
	var prev *netsim.Sample
	alpha := cfg.Alpha
	const gain = 3.0
	tick := 500 * sim.Microsecond
	var control func()
	control = func() {
		s := st.net.TakeSample(prev)
		st.col.Samples = append(st.col.Samples, s)
		prev = &st.col.Samples[len(st.col.Samples)-1]
		// Proportional step: utilization above target -> raise α ->
		// shorter paths -> less core load.
		alpha += gain * (s.TorToTorUtil - target)
		alpha = clampF(alpha, 0.05, 3.0)
		st.ucmp.Ager.SetAlpha(alpha)
		trace = append(trace, alphaTracePoint{at: st.eng.Now(), alpha: alpha, util: s.TorToTorUtil})
		if st.eng.Now()+tick <= st.horizon {
			st.eng.After(tick, control)
		}
	}
	st.eng.After(tick, control)
	res := st.run(false)
	res.ResumeNote, res.ShardNote = ckptNote, shardNote
	return res, trace, nil
}

func clampF(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
