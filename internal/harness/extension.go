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
		bins := res.Collector.BySize(coarseEdges)
		rep.Addf("%-22s %-10s %-10s %-10s %-9.2f %-8.4f",
			names[i], fmtT(bins[0].AvgFCT), fmtT(bins[1].AvgFCT), res.Collector.Percentile(0.99),
			res.CompletionRate, res.ReroutedFrac)
	}
	rep.Addf("(steering within one bucket of slack relieves hot calendar queues)")
	return rep, out, nil
}

// ExtensionAlphaController runs UCMP with a live proportional controller
// driving α toward a target ToR-to-ToR utilization and reports the
// trajectory. The controller ticks on the run's engine. Because bucket
// thresholds are α-free (Eqn. 4), retuning only updates the run's own
// host-side aging map — exactly the paper's "broadcast new values of α to
// the hosts" — and never the path set, which r's store shares with every
// other run of the fabric. The tick makes the run unlike any plain one, so
// r never memoizes it; and it cannot be serialised or split across
// lookahead domains, so checkpointing and sharding are cleared, each with
// its note on the Result.
func ExtensionAlphaController(r *Runner, base SimConfig, targetUtil float64) (*Report, *Result, error) {
	cfg := exhibitConfig(base, "websearch")
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
	st, err := r.buildSim(cfg, false)
	if err != nil {
		return nil, nil, err
	}

	rep := &Report{Title: "Extension (§5.2): live alpha controller"}
	rep.Addf("target ToR-to-ToR utilization: %.2f", targetUtil)
	rep.Addf("%-12s %-8s %-12s", "time", "alpha", "core util")
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
		alpha += gain * (s.TorToTorUtil - targetUtil)
		alpha = min(max(alpha, 0.05), 3.0)
		st.ucmp.Ager.SetAlpha(alpha)
		rep.Addf("%-12s %-8.3f %-12.3f", st.eng.Now(), alpha, s.TorToTorUtil)
		if st.eng.Now()+tick <= st.horizon {
			st.eng.After(tick, control)
		}
	}
	st.eng.After(tick, control)
	res := st.run(false)
	res.ResumeNote, res.ShardNote = ckptNote, shardNote
	final := res.Collector.MeanUtil(len(res.Collector.Samples)/2, func(s netsim.Sample) float64 { return s.TorToTorUtil })
	rep.Addf("second-half mean core utilization: %.3f", final)
	return rep, res, nil
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
		bins := res.Collector.BySize(coarseEdges)
		rep.Addf("%-14s %-10s %-10s %-10s %-12.3f",
			string(kinds[i]), fmtT(bins[1].AvgFCT), fmtT(bins[2].AvgFCT), fmtT(bins[3].AvgFCT), res.Efficiency)
	}
	return rep, out, nil
}
