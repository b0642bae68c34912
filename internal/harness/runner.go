package harness

import (
	"sync"
	"sync/atomic"
	"time"

	"ucmp/internal/core"
	"ucmp/internal/routing"
	"ucmp/internal/topo"
)

// Runner executes batches of simulation configurations for the exhibit
// drivers, and is the one in-process owner of what runs share: Results and
// built path sets. Each run wires its own fabric, router, engine and
// collector, so a batch fans out over Workers goroutines, every Result lands
// in its input slot, and reports rendered afterwards are byte-identical to a
// serial execution.
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
// A Runner also builds each path set once, memoized runs or not: a path
// set, and the KSP / Opera router holding a baseline's, is immutable once
// built, so every run reading it shares one build (pathSet).
//
// A nil *Runner runs serially, memoizes nothing and builds every path set
// it needs, which is what tests and benchmarks timing a driver want.
type Runner struct {
	// Workers bounds how many runs of a batch execute concurrently; ≤ 1
	// runs them serially.
	Workers int

	results onceMap[string, memoRun]
	paths   onceMap[pathSetKey, paths]
}

// onceMap holds one value per key, built by the first get of the key;
// concurrent gets of that key wait for the build, and a build that panics
// panics every get of its key. Safe for concurrent use.
type onceMap[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]func() V
}

// get returns key's value and whether this call was the key's first get.
func (o *onceMap[K, V]) get(key K, build func() V) (V, bool) {
	o.mu.Lock()
	v, ok := o.m[key]
	if !ok {
		if o.m == nil {
			o.m = make(map[K]func() V)
		}
		v = sync.OnceValue(build)
		o.m[key] = v
	}
	o.mu.Unlock()
	return v(), !ok
}

type memoRun struct {
	res *Result
	err error
}

// pathSetKey names a path set by everything its build reads: the scheme
// (UCMP, or a KSP / Opera baseline with its k), the fabric's configuration
// and schedule, and for UCMP α and the effective cap on parallel paths.
type pathSetKey struct {
	scheme RoutingKind
	topo   topo.Config
	sched  uint64
	alpha  float64
	maxPar int
}

// paths is what a run plans from — UCMP's path set, or a baseline's router
// and its store — and where it came from.
type paths struct {
	ps   *core.PathSet
	ksp  *routing.KSP
	info PathSetInfo
}

// pathSet returns what cfg's run plans from on fab, built by the first
// request for its key; every other request is served that build, warm. A
// nil Runner builds every time.
func (r *Runner) pathSet(fab *topo.Fabric, cfg SimConfig) paths {
	if r == nil {
		return buildPaths(fab, cfg)
	}
	t0 := time.Now()
	key := pathSetKey{scheme: cfg.Routing, topo: cfg.Topo, sched: fab.Sched.Fingerprint()}
	if cfg.Routing == UCMP {
		key.alpha, key.maxPar = cfg.Alpha, cfg.MaxParallel
		if key.maxPar <= 0 {
			key.maxPar = core.DefaultMaxParallel
		}
	}
	p, first := r.paths.get(key, func() paths { return buildPaths(fab, cfg) })
	if !first {
		p.info.Warm, p.info.Seconds = true, time.Since(t0).Seconds()
	}
	return p
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

// Run simulates cfgs and returns their Results in input order, fanning
// them out over the workers. A configuration this Runner already simulated,
// or is simulating for another index of the batch, reuses that Result — or
// that error. When several runs fail, the error is that of the lowest-index
// one.
func (r *Runner) Run(cfgs []SimConfig) ([]*Result, error) {
	out := make([]*Result, len(cfgs))
	err := r.forEach(len(cfgs), func(i int) (err error) {
		if r == nil || cfgs[i].Flows != nil {
			out[i], err = r.run(cfgs[i])
			return err
		}
		m, _ := r.results.get(configKey(cfgs[i], nil), func() memoRun {
			res, err := r.run(cfgs[i])
			if res != nil {
				res.Flows = nil
			}
			return memoRun{res, err}
		})
		out[i] = m.res
		return m.err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
