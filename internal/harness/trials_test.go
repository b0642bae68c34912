package harness

import (
	"fmt"
	"strings"
	"testing"

	"ucmp/internal/netsim"
	"ucmp/internal/sim"
	"ucmp/internal/transport"
)

func sweepForTest() (SimConfig, []Trial) {
	base := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	base.Duration = sim.Millisecond
	base.Seed = 7
	return base, SweepLoad(base, []RoutingKind{UCMP, VLB}, []float64{0.1, 0.3})
}

// The determinism contract of the trial runner: the aggregated output of a
// parallel execution is byte-identical to the serial one.
func TestTrialReplicationDeterminism(t *testing.T) {
	_, trials := sweepForTest()
	runWith := func(r *Runner) string {
		res, err := r.RunTrials(trials)
		if err != nil {
			t.Fatal(err)
		}
		return SummarizeTrials(trials, res)
	}
	serial := runWith(&Runner{Workers: 1})
	parallel := runWith(&Runner{Workers: 3})
	if serial != parallel {
		t.Fatalf("parallel trial output differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "ucmp/load=0.10") || !strings.Contains(serial, "vlb/load=0.30") {
		t.Fatalf("summary missing expected trials:\n%s", serial)
	}
	for _, line := range strings.Split(strings.TrimSpace(serial), "\n") {
		if strings.Contains(line, "completion=0.0000") {
			t.Fatalf("trial completed no flows: %s", line)
		}
	}
}

// Derived seeds depend only on the trial's index, never on execution order,
// and never collide within a sweep.
func TestSweepLoadSeeds(t *testing.T) {
	base, trials := sweepForTest()
	seen := map[int64]string{}
	for i, tr := range trials {
		want := base.Seed + int64(i)*seedStride
		if tr.Cfg.Seed != want {
			t.Fatalf("trial %d (%s) seed %d, want %d", i, tr.Name, tr.Cfg.Seed, want)
		}
		if prev, dup := seen[tr.Cfg.Seed]; dup {
			t.Fatalf("seed %d shared by %s and %s", tr.Cfg.Seed, prev, tr.Name)
		}
		seen[tr.Cfg.Seed] = tr.Name
	}
	if len(trials) != 4 {
		t.Fatalf("expected 2 schemes x 2 loads = 4 trials, got %d", len(trials))
	}
}

// The pool honors the Workers bound and never exceeds the work; Workers ≤ 1
// and a nil Runner are serial.
func TestWorkerCount(t *testing.T) {
	for _, c := range []struct {
		r       *Runner
		n, want int
	}{
		{&Runner{Workers: 2}, 8, 2},
		{&Runner{Workers: 8}, 3, 3},
		{&Runner{Workers: 2}, 1, 1},
		{&Runner{Workers: 1}, 8, 1},
		{&Runner{Workers: 0}, 8, 1},
		{&Runner{Workers: -4}, 8, 1},
		{nil, 8, 1},
	} {
		if got := c.r.workerCount(c.n); got != c.want {
			t.Errorf("workerCount(%d) with %+v: %d, want %d", c.n, c.r, got, c.want)
		}
	}
}

// A panicking trial degrades to a PANIC line carrying its derived seed and
// stack; every other trial still completes (the injected flow list repeats a
// flow ID, which panics inside the simulation build).
func TestRunTrialsPanicRecovery(t *testing.T) {
	_, trials := sweepForTest()
	trials[1].Cfg.Flows = []*netsim.Flow{netsim.NewFlow(1, 0, 17, 1000, 0), netsim.NewFlow(1, 1, 18, 1000, 0)}
	res, err := new(Runner).RunTrials(trials)
	if err != nil {
		t.Fatal(err)
	}
	if res[1].TrialPanic == "" {
		t.Fatal("injected panic was not recorded")
	}
	if want := fmt.Sprintf("seed %d", trials[1].Cfg.Seed); !strings.Contains(res[1].TrialPanic, want) {
		t.Fatalf("panic record missing derived seed %q:\n%s", want, res[1].TrialPanic)
	}
	if !strings.Contains(res[1].TrialPanic, "goroutine") {
		t.Fatalf("panic record missing stack:\n%s", res[1].TrialPanic)
	}
	for i, r := range res {
		if i == 1 {
			continue
		}
		if r == nil || r.TrialPanic != "" || len(r.Collector.Flows) == 0 {
			t.Fatalf("trial %d did not survive the neighboring panic: %+v", i, r)
		}
	}
	sum := SummarizeTrials(trials, res)
	if !strings.Contains(sum, "PANIC") {
		t.Fatalf("summary missing PANIC line:\n%s", sum)
	}
	if got := strings.Count(sum, "\n"); got != len(trials) {
		t.Fatalf("summary has %d lines, want %d:\n%s", got, len(trials), sum)
	}
}

// A killed sweep restarts mid-sweep: trials recorded in the sweep book are
// restored without re-running, the rest simulate, and the aggregated output
// is byte-identical to an uninterrupted sweep.
func TestSweepResume(t *testing.T) {
	_, plain := sweepForTest()
	plainRes, err := new(Runner).RunTrials(plain)
	if err != nil {
		t.Fatal(err)
	}
	want := SummarizeTrials(plain, plainRes)

	dir := t.TempDir()
	_, trials := sweepForTest()
	for i := range trials {
		trials[i].Cfg.CheckpointDir = dir
		trials[i].Cfg.Resume = true
	}
	// Simulate a sweep killed after two trials: complete them by hand into
	// the book the resumed sweep will open.
	book := openSweepBook(trials)
	for i := 0; i < 2; i++ {
		r, err := (*Runner)(nil).runTrial(trials[i])
		if err != nil {
			t.Fatal(err)
		}
		book.record(trials[i], r)
	}

	res, err := new(Runner).RunTrials(trials)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		restored := r.SweepLine != ""
		if i < 2 && !restored {
			t.Fatalf("trial %d re-ran instead of restoring from the sweep book", i)
		}
		if i >= 2 && restored {
			t.Fatalf("trial %d restored from a book that never recorded it", i)
		}
	}
	if got := SummarizeTrials(trials, res); got != want {
		t.Fatalf("resumed sweep diverged:\n--- uninterrupted ---\n%s--- resumed ---\n%s", want, got)
	}

	// A second resume restores everything.
	res2, err := new(Runner).RunTrials(trials)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res2 {
		if r.SweepLine == "" {
			t.Fatalf("trial %d re-ran on a fully-recorded sweep", i)
		}
	}
	if got := SummarizeTrials(trials, res2); got != want {
		t.Fatal("fully-restored sweep summary diverged")
	}
}

// A sweep book that cannot be written leaves every trial's result intact and
// says so in that trial's ResumeNote.
func TestSweepBookFailureNoted(t *testing.T) {
	_, trials := sweepForTest()
	trials = trials[:2]
	dir := notADir(t)
	for i := range trials {
		trials[i].Cfg.CheckpointDir = dir
	}
	res, err := new(Runner).RunTrials(trials)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !strings.HasPrefix(r.ResumeNote, "sweep book not written: ") || r.Events == 0 {
			t.Errorf("trial %d: ResumeNote %q after %d events, want a sweep-book note on a run trial", i, r.ResumeNote, r.Events)
		}
	}
}
