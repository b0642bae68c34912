package harness

import (
	"fmt"
	"runtime/debug"
	"strings"

	"ucmp/internal/metrics"
)

// Trial is one fully-specified simulation run inside a trial matrix — a
// (scheme, load point) pair with its own derived seed. Trials share no
// mutable state: each builds its own fabric, engine, network and
// collector, and reads its path set from the Runner's store, which is what
// makes the fan-out below safe.
type Trial struct {
	Name string
	Cfg  SimConfig
}

// seedStride separates the derived seeds of consecutive trials so their
// workload RNG streams do not overlap for any realistic flow count.
const seedStride = 1_000_003

// SweepLoad builds the scheme × load trial matrix with deterministic derived
// seeds: trial i uses base.Seed + i*seedStride regardless of execution
// order, so serial and parallel executions simulate identical workloads.
func SweepLoad(base SimConfig, schemes []RoutingKind, loads []float64) []Trial {
	trials := make([]Trial, 0, len(schemes)*len(loads))
	for _, s := range schemes {
		for _, l := range loads {
			cfg := base
			cfg.Routing = s
			cfg.Load = l
			cfg.Seed = base.Seed + int64(len(trials))*seedStride
			trials = append(trials, Trial{
				Name: fmt.Sprintf("%s/load=%.2f", s, l),
				Cfg:  cfg,
			})
		}
	}
	return trials
}

// runTrial executes one trial, converting a panic anywhere inside the
// simulation into a Result carrying the panic message, the trial's derived
// seed, and the stack — so one broken trial degrades that line of the sweep
// instead of killing every other worker's progress.
func (r *Runner) runTrial(t Trial) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res = &Result{
				Config:     t.Cfg,
				Collector:  &metrics.Collector{},
				TrialPanic: fmt.Sprintf("panic (seed %d): %v\n%s", t.Cfg.Seed, p, debug.Stack()),
			}
			err = nil
		}
	}()
	return r.run(t.Cfg)
}

// RunTrials executes the trials over the Runner's workers and returns
// results in input order. Because every
// result lands in its preassigned slot and aggregation happens only after
// all trials finish, anything rendered from the returned slice is
// byte-identical between serial and parallel execution (pinned by
// TestTrialReplicationDeterminism). Trials bypass the Runner's memo — a
// sweep's trials carry distinct derived seeds, and a trial's Result may gain
// a sweep-book note after its run — but not its path-set store.
//
// A panicking trial does not abort the sweep: its slot carries
// Result.TrialPanic and the remaining trials complete normally.
//
// When the trials carry a CheckpointDir, RunTrials additionally keeps a
// sweep book in that directory recording the summary line of every
// completed trial; with Resume set, trials already present in the book are
// restored from it (Result.SweepLine) instead of re-running, so a killed
// sweep restarts mid-sweep instead of from scratch.
func (r *Runner) RunTrials(trials []Trial) ([]*Result, error) {
	book := openSweepBook(trials)
	out := make([]*Result, len(trials))
	err := r.forEach(len(trials), func(i int) error {
		if res := book.restore(trials[i]); res != nil {
			out[i] = res
			return nil
		}
		res, err := r.runTrial(trials[i])
		if err != nil {
			return fmt.Errorf("trial %s: %w", trials[i].Name, err)
		}
		out[i] = res
		if res.TrialPanic == "" {
			// Panicked trials stay out of the book so a resumed sweep
			// retries them instead of replaying the failure line.
			if err := book.record(trials[i], res); err != nil {
				res.ResumeNote = joinNote(res.ResumeNote, fmt.Sprintf("sweep book not written: %v", err))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// summaryLine renders the aggregate line for one finished trial; it is the
// unit the sweep book stores, so a restored trial reprints byte-identically.
func summaryLine(t Trial, r *Result) string {
	if r.SweepLine != "" {
		return r.SweepLine
	}
	if r.TrialPanic != "" {
		msg, _, _ := strings.Cut(r.TrialPanic, "\n")
		return fmt.Sprintf("%-24s PANIC %s\n", t.Name, msg)
	}
	return fmt.Sprintf(
		"%-24s completion=%.4f eff=%.4f rerouted=%.5f p50=%s p99=%s injected=%d delivered=%d dropped=%d\n",
		t.Name,
		r.CompletionRate,
		r.Efficiency,
		r.ReroutedFrac,
		r.Collector.Percentile(0.50),
		r.Collector.Percentile(0.99),
		r.Counters.DataInjected,
		r.Counters.DataDelivered,
		r.Counters.DataDropped,
	)
}

// SummarizeTrials renders one line per trial with the aggregates the sweep
// reports; it is the canonical aggregated output the determinism contract is
// defined over.
func SummarizeTrials(trials []Trial, results []*Result) string {
	var b strings.Builder
	for i, r := range results {
		b.WriteString(summaryLine(trials[i], r))
	}
	return b.String()
}
