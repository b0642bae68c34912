package harness

import (
	"sync"
	"sync/atomic"
)

// Runner executes batches of simulation configurations for the exhibit
// drivers. Each run builds its own fabric, path set, engine and collector,
// so runs share no mutable state: a batch fans out over Workers goroutines,
// every Result lands in its input slot, and reports rendered afterwards are
// byte-identical to a serial execution.
//
// A Runner simulates each distinct configuration at most once: Results are
// memoized by configKey, the checkpoint identity that names every field
// shaping a run, so the §7 sensitivity figures that all vary one knob around
// the same UCMP+DCTCP web-search run share that run. Configurations with an
// explicit Flows list always run (a run mutates its Flow objects). A memoized
// Result is shared by every caller that asks for it and must be treated as
// read-only. It carries no Flows: the exhibits render from the Collector,
// and a Flow's transport endpoints point back into its run's network, so
// keeping them would keep every memoized simulation resident.
//
// A nil *Runner runs serially and memoizes nothing, which is what tests and
// benchmarks timing a driver want. A Runner's Run is not safe for concurrent
// use.
type Runner struct {
	// Workers bounds how many runs of a batch execute concurrently; ≤ 1
	// runs them serially.
	Workers int

	memo map[string]*Result
}

// workerCount resolves the pool size for n independent units of work.
func (r *Runner) workerCount(n int) int {
	if r == nil || r.Workers <= 1 || n <= 1 {
		return 1
	}
	return min(r.Workers, n)
}

// forEach invokes fn(0..n-1) over the Runner's workers. Every index runs
// even if an earlier one fails (errors land in per-index slots); the error
// reported is the one from the lowest index, matching what a serial
// fail-fast loop would surface.
func (r *Runner) forEach(n int, fn func(i int) error) error {
	workers := r.workerCount(n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Run simulates cfgs and returns their Results in input order. A
// configuration this Runner already simulated, or one repeated earlier in
// the batch, reuses that Result; the rest fan out over the workers. When
// several runs fail, the error is that of the lowest-index one.
func (r *Runner) Run(cfgs []SimConfig) ([]*Result, error) {
	out := make([]*Result, len(cfgs))
	keys := make([]string, len(cfgs)) // "" for a run kept out of the memo
	var todo []int                    // the runs to simulate
	for i, cfg := range cfgs {
		if r != nil && cfg.Flows == nil {
			if r.memo == nil {
				r.memo = make(map[string]*Result)
			}
			keys[i] = configKey(cfg, nil)
			if _, ok := r.memo[keys[i]]; ok {
				continue // simulated before, or claimed earlier in this batch
			}
			r.memo[keys[i]] = nil
		}
		todo = append(todo, i)
	}
	err := r.forEach(len(todo), func(j int) (err error) {
		out[todo[j]], err = Run(cfgs[todo[j]])
		return err
	})
	for _, i := range todo {
		switch {
		case keys[i] == "":
		case out[i] == nil: // failed, or never ran after a serial failure
			delete(r.memo, keys[i])
		default:
			out[i].Flows = nil
			r.memo[keys[i]] = out[i]
		}
	}
	if err != nil {
		return nil, err
	}
	for i, res := range out {
		if res == nil {
			out[i] = r.memo[keys[i]]
		}
	}
	return out, nil
}
