package harness

import (
	"math/rand"

	"ucmp/internal/failure"
	"ucmp/internal/sim"
	"ucmp/internal/transport"
)

// BuildFailureTimeline samples a failure scenario on the config's fabric —
// the given fractions of ToRs, uplink cables, and circuit switches, drawn
// from cfg.Seed — and scripts it to go down at `down` and, when `repair` is
// non-negative, come back at `repair`. It is the declarative front end the
// CLIs use for SimConfig.Failures.
func BuildFailureTimeline(cfg SimConfig, torFrac, linkFrac, switchFrac float64, down, repair sim.Time) (*failure.Timeline, error) {
	fab, err := newFabricFor(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sc := failure.NewScenario(fab).
		FailToRs(torFrac, rng).
		FailLinks(linkFrac, rng).
		FailSwitches(switchFrac, rng)
	return failure.FromScenario(sc, down, repair), nil
}

// FailureSweep is the runtime companion of Fig 12: for each link-failure
// fraction it injects the sampled cables as runtime faults a quarter into
// the traffic window (no repair), runs the packet simulation with online
// §5.3 recovery, and reports the per-class recovery breakdown next to the
// offline failure.Classify shares for the same scenario, the
// time-to-reroute tail, and the FCT degradation.
func FailureSweep(base SimConfig, fracs []float64) (*Report, []*Result, error) {
	base.Workload = "websearch"
	base.Routing = UCMP
	base.Transport = transport.DCTCP
	failAt := base.Duration / 4
	out := make([]*Result, len(fracs))
	off := make([]failure.Breakdown, len(fracs))
	if err := forEach(len(fracs), func(i int) error {
		cfg := base
		if fracs[i] > 0 {
			fab, err := newFabricFor(cfg)
			if err != nil {
				return err
			}
			sc := newLinkFailures(fab, fracs[i], cfg.Seed)
			cfg.Failures = failure.FromScenario(sc, failAt, -1)
			ps, _ := timedPathSet(fab, cfg)
			off[i] = failure.Classify(ps, sc)
		}
		res, err := Run(cfg)
		if err != nil {
			return err
		}
		out[i] = res
		return nil
	}); err != nil {
		return nil, nil, err
	}

	r := &Report{Title: "Failure sweep: runtime link failures injected at duration/4 (UCMP+DCTCP, web search)"}
	r.Addf("%-8s %-52s %-26s %-10s", "faulty", "online recovery (data-packet plans)", "offline Classify shares", "p99 wait")
	for i, res := range out {
		rec := res.Recovery
		r.Addf("%-8.2f same=%-6d short=%-5d long=%-5d backup=%-5d failed=%-4d sh/same/lo/un=%.2f/%.2f/%.2f/%.2f   %-10s",
			fracs[i], rec.SameLength, rec.Shorter, rec.Longer, rec.Backup, rec.Failed,
			off[i].Share[failure.Shorter], off[i].Share[failure.SameLength],
			off[i].Share[failure.Longer], off[i].Share[failure.Unrecoverable],
			fmtT(rec.WaitPercentile(0.99)))
	}
	r.Addf("")
	r.Addf("%-8s %-10s %-10s %-10s %-10s %-9s %-8s", "faulty", "<=10KB", "<=100KB", "<=1MB", ">1MB", "complete", "drops")
	for i, res := range out {
		bins := coarseBins(res.Collector)
		r.Addf("%-8.2f %-10s %-10s %-10s %-10s %-9.2f %-8d",
			fracs[i], fmtT(bins[0]), fmtT(bins[1]), fmtT(bins[2]), fmtT(bins[3]),
			res.CompletionRate, res.Counters.DroppedPackets)
	}
	return r, out, nil
}
