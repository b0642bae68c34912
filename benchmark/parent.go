package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// childEnv carries a child's arguments. An environment variable, not
// flags, so the same re-exec works from `go run` and from the test binary.
const childEnv = "UCMP_BENCHMARK_CHILD"

// childRun is a child's own report plus what the parent saw of it.
type childRun struct {
	childResult
	WallS float64 // exec to exit
	CPUS  float64 // user + system
	RSSMB float64 // ru_maxrss; 0 where the platform does not report it
}

// spawn runs one child to completion and waits for it. The parent does no
// heavy work of its own, so a child's ru_maxrss is the child's.
func spawn(a childArgs) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	enc, err := json.Marshal(a)
	if err != nil {
		return childRun{}, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(enc), fmt.Sprintf("GOMAXPROCS=%d", childProcs()))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	err = cmd.Run()
	run := childRun{WallS: time.Since(t0).Seconds()}
	if err != nil {
		return run, fmt.Errorf("child %s %s: %w", a.Mode, a.Workload, err)
	}
	st := cmd.ProcessState
	run.CPUS = (st.UserTime() + st.SystemTime()).Seconds()
	run.RSSMB = peakRSSMB(st)
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &run.childResult); err != nil {
		return run, fmt.Errorf("child %s %s: bad result: %w", a.Mode, a.Workload, err)
	}
	return run, nil
}

// childProcs caps a child's threads: never more than the machine has, and
// never more than the two the recorded numbers were taken with.
func childProcs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// session measures one workload at one seed. Its scratch directories live
// under outDir/tmp and go away with close.
type session struct {
	w      workloadDef
	spec   spec
	scale  string
	seed   int64
	outDir string
	tmp    string

	cold   *childRun // warm workloads: the pass that populated the cache
	reps   []childRun
	probes []float64
	// ref is the fingerprint the first run at each seed produced: the cold
	// pass for a warm workload, else the first repetition at that seed.
	// Every later run at that seed must reproduce it.
	ref map[int64]string
	// failures are correctness checks that did not hold; any one of them
	// fails every operation of the workload.
	failures []string
}

func newSession(w workloadDef, scale string, seed int64, outDir string) (*session, error) {
	sp, err := specFor(w.Name, scale, seed)
	if err != nil {
		return nil, err
	}
	base := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(base, w.Name+"-")
	if err != nil {
		return nil, err
	}
	s := &session{w: w, spec: sp, scale: scale, seed: seed, outDir: outDir, tmp: tmp, ref: map[int64]string{}}
	if sp.Warm {
		// One untimed cold pass: builds the symmetric path set, saves the
		// fabric file every later child loads, and fixes the fingerprint a
		// warm run must reproduce.
		a := s.args("run")
		cold, err := spawn(a)
		if err != nil {
			s.close()
			return nil, err
		}
		s.check("cold pass", a, cold)
		s.cold = &cold
	}
	return s, nil
}

func (s *session) close() { os.RemoveAll(s.tmp) }

func (s *session) args(mode string) childArgs {
	return childArgs{
		Mode: mode, Workload: s.w.Name, Scale: s.scale, Seed: s.seed,
		CacheDir: filepath.Join(s.tmp, "cache"), CkptDir: filepath.Join(s.tmp, "ckpt"),
		OutDir: s.outDir,
	}
}

func (s *session) failf(format string, a ...any) {
	s.failures = append(s.failures, fmt.Sprintf(format, a...))
}

// minProbes is how often a run probes set-up at the least; it goes on
// until probeTimeFor(scale) has gone into probing.
const minProbes = 5

// probeSetup runs the workload's set-up alone, over and over.
func (s *session) probeSetup() error {
	a := s.args("run")
	a.Probe = true
	for n, t0 := 0, time.Now(); n < minProbes || time.Since(t0) < probeTimeFor(s.scale); n++ {
		r, err := spawn(a)
		if err != nil {
			return err
		}
		s.probes = append(s.probes, r.WallS)
	}
	return nil
}

// seedStride separates the seeds of a session's repetitions.
const seedStride = 7919

// repetition runs the next measured repetition and checks its outputs. The
// second repetition repeats the first one's seed, so every run of two or
// more checks that the simulation reproduces its fingerprint; later ones
// move on by seedStride each, so a longer run's medians cover several draws
// of the flow-size tail (event counts differ by some 5% from seed to seed).
func (s *session) repetition() error {
	a := s.args("run")
	a.Seed += int64(max(len(s.reps)-1, 0)) * seedStride
	r, err := spawn(a)
	if err != nil {
		return err
	}
	s.check("repetition", a, r)
	s.reps = append(s.reps, r)
	return nil
}

// check holds a run's outputs to the per-flow checks and to the fingerprint
// of the first run at its seed. The offline workload's inputs have no seed,
// so all its runs must agree.
func (s *session) check(what string, a childArgs, r childRun) bool {
	before := len(s.failures)
	if r.BadFlows > 0 {
		s.failf("%s: %d flows with impossible outcomes", what, r.BadFlows)
	}
	seed := a.Seed
	if s.spec.Offline {
		seed = 0
	}
	if ref, ok := s.ref[seed]; !ok {
		s.ref[seed] = r.Fingerprint
	} else if r.Fingerprint != ref {
		s.failf("%s at seed %d: fingerprint %s, want %s", what, a.Seed, r.Fingerprint, ref)
	}
	return len(s.failures) == before
}

// measure is the one measuring protocol: the set-up probes, then
// repetitions started until the measuring time is used up, at least one.
// The driver's run calls it once with its --seconds; the full set calls it
// with 0 once per round, so both report medians over the same kind of
// samples.
func (s *session) measure(seconds float64) error {
	if err := s.probeSetup(); err != nil {
		return err
	}
	for t0 := time.Now(); ; {
		if err := s.repetition(); err != nil {
			return err
		}
		if time.Since(t0).Seconds() >= seconds {
			return nil
		}
	}
}

func column(reps []childRun, f func(childRun) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// endToEndValues returns every end-to-end metric's samples: one per
// repetition, or per probe for set-up.
func (s *session) endToEndValues() map[string][]float64 {
	setup := median(s.probes)
	return map[string][]float64{
		"wall_s":  column(s.reps, func(r childRun) float64 { return r.WallS }),
		"cpu_s":   column(s.reps, func(r childRun) float64 { return r.CPUS }),
		"setup_s": s.probes,
		"work_per_wall_s": column(s.reps, func(r childRun) float64 {
			return s.spec.work(r.childResult) / math.Max(r.WallS-setup, 1e-6)
		}),
		"peak_rss_mb": column(s.reps, func(r childRun) float64 { return r.RSSMB }),
		"alloc_mb":    column(s.reps, func(r childRun) float64 { return r.AllocMB }),
	}
}

// operations counts what the workload attempted: flows launched over all
// repetitions, or table rows validated. Flows still running at the horizon
// are a simulated outcome (transport.unfinished_frac), not a failure; a
// flow fails when its recorded outcome is impossible, and every operation
// fails when any check on the run does.
func (s *session) operations() (attempted, failed int) {
	for _, r := range s.reps {
		attempted += r.Flows + r.TableRows
		failed += r.BadFlows
	}
	if attempted == 0 {
		attempted = 1
	}
	if len(s.failures) > 0 {
		failed = attempted
	}
	return attempted, failed
}

// trace is the traced run and the equivalence checks that need whole extra
// runs, all at the session's seed. It expects measure to have run.
func (s *session) trace() (map[string]float64, error) {
	ref := s.reps[0]
	a := s.args("trace")
	tc, err := spawn(a)
	if err != nil {
		return nil, err
	}
	layer := tc.Layer
	if tc.Fingerprint != ref.Fingerprint {
		layer["harness.wiring_drift"] = 1
		s.failf("traced wiring: fingerprint %s, harness.Run gave %s", tc.Fingerprint, ref.Fingerprint)
	}
	if tc.BadFlows > 0 {
		s.failf("traced wiring: %d flows with impossible outcomes", tc.BadFlows)
	}
	if !s.spec.Offline {
		tracedLoop := layer["sim.loop_s"] * (1 + layer["checkpoint.overhead_frac"])
		layer["harness.trace_overhead_frac"] = tracedLoop/math.Max(ref.WallS-median(s.probes), 1e-6) - 1

		a = s.args("run")
		a.Shards = 2
		// The sharded run must not overwrite the snapshot the resume below
		// restores from.
		a.CkptDir = filepath.Join(s.tmp, "ckpt-sharded")
		sh, err := spawn(a)
		if err != nil {
			return nil, err
		}
		s.check("Shards=2", a, sh)
		layer["sim.sharded2_speedup"] = ref.WallS / sh.WallS
	}
	if s.spec.Warm {
		if ref.Fingerprint == s.cold.Fingerprint {
			layer["harness.warm_equal"] = 1
		}
		a = s.args("run")
		a.Resume = true
		rs, err := spawn(a)
		if err != nil {
			return nil, err
		}
		layer["harness.resume_s"] = rs.WallS
		if !strings.HasPrefix(rs.Note, "resumed at") {
			s.failf("resume fell back to a cold run: %q", rs.Note)
		} else if s.check("resume", a, rs) {
			layer["harness.resume_equal"] = 1
		}
	}
	cn, err := spawn(childArgs{Mode: "canary", Scale: s.scale})
	if err != nil {
		return nil, err
	}
	for k, v := range cn.Layer {
		layer[k] = v
	}
	for _, m := range perLayer {
		if _, ok := layer[m.Name]; !ok {
			layer[m.Name] = 0
		}
	}
	for k := range layer {
		if !knownLayer(k) {
			return nil, fmt.Errorf("trace child reported %q, which the registry does not list", k)
		}
	}
	return layer, nil
}

func knownLayer(name string) bool {
	for _, m := range perLayer {
		if m.Name == name {
			return true
		}
	}
	return false
}

// median of a sample; 0 when it is empty.
func median(v []float64) float64 { return quartiles(v)[1] }

// quartiles are the cut points Python's statistics.quantiles(v, n=4)
// returns, so a spread computed here is the spread the driver computes.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
