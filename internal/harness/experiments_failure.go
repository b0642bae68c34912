package harness

import (
	"fmt"
	"math/rand"

	"ucmp/internal/failure"
	"ucmp/internal/sim"
)

// BuildFailureTimeline samples a failure scenario on the config's fabric —
// the given fractions of ToRs, uplink cables, and circuit switches, drawn
// from cfg.Seed — and scripts it to go down at `down` and, when `repair` is
// non-negative, come back at `repair`. It is the declarative front end for
// SimConfig.Failures. A fraction that is NaN or outside [0,1] is an error
// (sampling would fail all or nothing), and so is a repair that is not
// after the failure (Compile would apply a same-instant repair together with
// its failure, and an earlier one before it).
func BuildFailureTimeline(cfg SimConfig, torFrac, linkFrac, switchFrac float64, down, repair sim.Time) (*failure.Timeline, error) {
	for _, f := range []struct {
		name string
		frac float64
	}{{"ToR", torFrac}, {"link", linkFrac}, {"switch", switchFrac}} {
		if !(f.frac >= 0 && f.frac <= 1) {
			return nil, fmt.Errorf("harness: %s failure fraction %g must lie in [0,1]", f.name, f.frac)
		}
	}
	if repair >= 0 && repair <= down {
		return nil, fmt.Errorf("harness: repair at %v must come after the failure at %v", repair, down)
	}
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
func FailureSweep(r *Runner, base SimConfig, fracs []float64) (*Report, []*Result, error) {
	base = exhibitConfig(base, "websearch")
	fab, err := newFabricFor(base)
	if err != nil {
		return nil, nil, err
	}
	ps := r.pathSet(fab, base).ps // the one the runs read
	cfgs := make([]SimConfig, len(fracs))
	off := make([]failure.Breakdown, len(fracs))
	for i, frac := range fracs {
		cfgs[i] = base
		if frac > 0 {
			sc := failure.NewScenario(fab).FailLinks(frac, rand.New(rand.NewSource(base.Seed)))
			cfgs[i].Failures = failure.FromScenario(sc, base.Duration/4, -1)
			off[i] = failure.Classify(ps, sc)
		}
	}
	out, err := r.Run(cfgs)
	if err != nil {
		return nil, nil, err
	}

	rep := &Report{Title: "Failure sweep: runtime link failures injected at duration/4 (UCMP+DCTCP, web search)"}
	rep.Addf("%-8s %-52s %-26s %-10s", "faulty", "online recovery (data-packet plans)", "offline Classify shares", "p99 wait")
	for i, res := range out {
		rec := res.Recovery
		rep.Addf("%-8.2f same=%-6d short=%-5d long=%-5d backup=%-5d failed=%-4d sh/same/lo/un=%.2f/%.2f/%.2f/%.2f   %-10s",
			fracs[i], rec.SameLength, rec.Shorter, rec.Longer, rec.Backup, rec.Failed,
			off[i].Share[failure.Shorter], off[i].Share[failure.SameLength],
			off[i].Share[failure.Longer], off[i].Share[failure.Unrecoverable],
			fmtT(rec.WaitPercentile(0.99)))
	}
	rep.Addf("")
	rep.Addf("%-8s %-10s %-10s %-10s %-10s %-9s %-8s", "faulty", "<=10KB", "<=100KB", "<=1MB", ">1MB", "complete", "drops")
	for i, res := range out {
		bins := coarseBins(res.Collector)
		rep.Addf("%-8.2f %-10s %-10s %-10s %-10s %-9.2f %-8d",
			fracs[i], fmtT(bins[0]), fmtT(bins[1]), fmtT(bins[2]), fmtT(bins[3]),
			res.CompletionRate, res.Counters.DroppedPackets)
	}
	return rep, out, nil
}
