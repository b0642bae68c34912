package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
	"time"

	"ucmp/internal/harness"
	"ucmp/internal/sim"
	"ucmp/internal/transport"
)

// runMainEnv makes the test binary act as ucmpbench itself, so the tests
// drive the real main without a separate build.
const runMainEnv = "UCMPBENCH_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// ucmpbench runs the real main with args and returns its exit status and
// output streams.
func ucmpbench(t *testing.T, args ...string) (status int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		status = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return status, out.String(), errb.String()
}

// wantSelected checks that selectExps takes a list of known ids as given.
func wantSelected(t *testing.T, spec string, ids ...string) {
	t.Helper()
	got, err := selectExps(spec)
	if err != nil || len(got) != len(ids) {
		t.Fatalf("selectExps(%q) = %v, %v", spec, got, err)
	}
	for _, id := range ids {
		if !got[id] {
			t.Fatalf("selectExps(%q) = %v, lacks %s", spec, got, id)
		}
	}
}

// wantRejected checks that selectExps rejects every spec in unknown, and that
// its error for named names every bad id (bad) and the valid list (valid).
func wantRejected(t *testing.T, unknown []string, named, bad, valid string) {
	t.Helper()
	for _, spec := range unknown {
		if _, err := selectExps(spec); err == nil {
			t.Errorf("selectExps(%q) accepted an unknown id", spec)
		}
	}
	_, err := selectExps(named)
	if err == nil || !strings.Contains(err.Error(), bad) || !strings.Contains(err.Error(), valid) {
		t.Fatalf("selectExps(%q): error should name every unknown id and the valid list: %v", named, err)
	}
}

func TestSelectExps(t *testing.T) {
	wantSelected(t, "fig9, table1,sched", "fig9", "table1", "sched")
	// "all" is an id like any other in the list: it adds every exhibit, and
	// naming one again beside it runs it once.
	wantSelected(t, "all", allExps...)
	wantSelected(t, "all,fig8", allExps...)
	wantSelected(t, "fig8, all", allExps...)
	wantRejected(t, []string{"bogus", "fig9,fgi8", "fig9,", "", "all,bogus", "scale"}, "fig9,fgi8,nope", `"fgi8", "nope"`, "fig17")
}

// The offline exhibit ids resolve like every other: a list of known ids is
// taken as given, and a typo among them is rejected with every bad id and the
// valid list, sched included, named.
func TestSelectExpsOfflineIDs(t *testing.T) {
	wantSelected(t, "fig14, table3", "fig14", "table3")
	wantRejected(t, []string{"tabel2", "fig5a,", "fig12abc"}, "fig5a,fgi5b,nope", `"fgi5b", "nope"`, "sched")
}

// wantUnknownExpExitsTwo checks that -exp spec exits 2 before any exhibit
// runs, with one stderr line naming the bad id and the valid ones.
func wantUnknownExpExitsTwo(t *testing.T, spec string) {
	t.Helper()
	status, stdout, stderr := ucmpbench(t, "-exp", spec)
	if status != 2 {
		t.Fatalf("-exp %s: exit status %d, want 2; stderr: %s", spec, status, stderr)
	}
	bad := spec[strings.LastIndex(spec, ",")+1:]
	if !strings.Contains(stderr, `"`+bad+`"`) || !strings.Contains(stderr, "table1") || !strings.Contains(stderr, "table2") || strings.Count(stderr, "\n") != 1 {
		t.Fatalf("-exp %s: stderr is not one line naming the bad id and the valid list: %s", spec, stderr)
	}
	if stdout != "" {
		t.Fatalf("-exp %s: an exhibit ran before the id check: %s", spec, stdout)
	}
}

// A typo in -exp must not run nothing and exit 0: it exits 2 before any
// exhibit runs, naming the bad id on stderr.
func TestUnknownExpExitsNonZero(t *testing.T) {
	wantUnknownExpExitsTwo(t, "table1,bogus")
}

// A lone typo (-exp tabel2) and a typo after a valid id (-exp fig14,bogus)
// both exit 2 in the same way.
func TestUnknownExpExitsTwo(t *testing.T) {
	for _, spec := range []string{"tabel2", "fig14,bogus"} {
		wantUnknownExpExitsTwo(t, spec)
	}
}

// A negative -workers, -shards or -checkpoint-every exits 2 before any
// exhibit runs, naming the flag and value. A negative -shards or
// -checkpoint-every used to print table1 and then exit 1 inside fig8.
func TestNegativeWorkersExitsTwo(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"-workers", "-1"},
		{"-shards", "-2"},
		{"-checkpoint-every", "-1ms"},
	} {
		status, stdout, stderr := ucmpbench(t, "-exp", "table1,fig8", c.flag, c.value)
		if status != 2 || !strings.Contains(stderr, c.flag+": "+c.value) || stdout != "" {
			t.Errorf("%s %s: exit status %d, want 2 naming the flag and no output; stdout: %s; stderr: %s",
				c.flag, c.value, status, stdout, stderr)
		}
	}
}

// The schedule statistics are an offline exhibit like Fig 5a: at the scaled
// size they render from the 32-ToR analysis path set in well under a second.
func TestSchedExhibit(t *testing.T) {
	start := time.Now()
	status, stdout, stderr := ucmpbench(t, "-exp", "sched")
	if took := time.Since(start); status != 0 || took > time.Second {
		t.Fatalf("exit status %d after %v; stderr: %s", status, took, stderr)
	}
	for _, line := range []string{
		"== schedule statistics (32 ToRs, 4 switches, round-robin) ==\n",
		"\nslice-graph diameter: 5..8\n",
	} {
		if !strings.Contains(stdout, line) {
			t.Errorf("stdout lacks %q:\n%s", line, stdout)
		}
	}
}

// TestShardStatsFoldedWhole pins what `ucmpbench -shards N -schedstats`
// prints. A sharded Run fills every field of Result.ShardStats, and the
// fold over an exhibit's Results sums each counter and takes the largest
// high-water mark of every field of sim.SchedStats, sim.ShardStats and
// netsim.MemStats — reflect walks the structs, so a counter added to an
// engine and forgotten in the fold fails here.
func TestShardStatsFoldedWhole(t *testing.T) {
	cfg := harness.ScaledConfig(harness.UCMP, transport.DCTCP, "websearch")
	cfg.Duration = sim.Millisecond
	cfg.Horizon = 4 * sim.Millisecond
	cfg.Shards = 2
	res, err := harness.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sharded {
		t.Fatalf("Shards=2 fell back to the serial engine: %s", res.ShardNote)
	}
	v := reflect.ValueOf(res.ShardStats)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("ShardStats.%s is zero after a sharded run: %+v", v.Type().Field(i).Name, res.ShardStats)
		}
	}

	// Two Results whose every field differs: a field summed reads a+b, one
	// maxed reads max(a, b), and one the fold skips reads 0.
	var a, b harness.Result
	for _, r := range []struct {
		res  *harness.Result
		base uint64
	}{{&a, 3}, {&b, 10}} {
		for _, st := range []any{&r.res.Sched, &r.res.ShardStats, &r.res.Mem} {
			v := reflect.ValueOf(st).Elem()
			for i := 0; i < v.NumField(); i++ {
				setNum(v.Field(i), r.base+uint64(i))
			}
		}
	}
	f := foldResults([]*harness.Result{&a, &b}, map[*harness.Result]bool{})
	checkFold(t, f, &a, &b)

	// A Result already folded for an earlier exhibit counts once: folding
	// [a, b] after a reads as b alone, against a zero Result.
	folded := map[*harness.Result]bool{}
	foldResults([]*harness.Result{&a}, folded)
	checkFold(t, foldResults([]*harness.Result{&a, &b}, folded), &harness.Result{}, &b)
}

// checkFold requires f to be the fold of a and b: every counter of
// sim.SchedStats, sim.ShardStats and netsim.MemStats a+b, every high-water
// mark max(a, b).
func checkFold(t *testing.T, f exhibitStats, a, b *harness.Result) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, a, b any
		highWater func(field string) bool
	}{
		{"SchedStats", f.sched, a.Sched, b.Sched, func(n string) bool { return strings.HasSuffix(n, "HighWater") }},
		{"ShardStats", f.shard, a.ShardStats, b.ShardStats, func(n string) bool { return strings.HasSuffix(n, "HighWater") }},
		{"MemStats", f.mem, a.Mem, b.Mem, func(string) bool { return true }},
	} {
		got, va, vb := reflect.ValueOf(c.got), reflect.ValueOf(c.a), reflect.ValueOf(c.b)
		for i := 0; i < got.NumField(); i++ {
			name := got.Type().Field(i).Name
			x, y := num(va.Field(i)), num(vb.Field(i))
			want := x + y
			if c.highWater(name) {
				want = max(x, y)
			}
			if g := num(got.Field(i)); g != want {
				t.Errorf("%s.%s folded to %d from %d and %d, want %d", c.name, name, g, x, y, want)
			}
		}
	}
}

func setNum(v reflect.Value, n uint64) {
	if v.CanUint() {
		v.SetUint(n)
	} else {
		v.SetInt(int64(n))
	}
}

func num(v reflect.Value) uint64 {
	if v.CanUint() {
		return v.Uint()
	}
	return uint64(v.Int())
}

// Fig 6c renders from the web-search grid fig6a simulated: both reports
// print, and only fig6a's timing line counts simulation events.
func TestSharedGridRunsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("packet simulations")
	}
	status, stdout, stderr := ucmpbench(t, "-exp", "fig6a,fig6c")
	if status != 0 {
		t.Fatalf("ucmpbench: exit status %d\n%s", status, stderr)
	}
	for _, title := range []string{"== Fig 6 FCT vs flow size, websearch", "== Fig 6 bandwidth efficiency, websearch"} {
		if !strings.Contains(stdout, title) {
			t.Errorf("stdout lacks %q:\n%s", title, stdout)
		}
	}
	var timing []string
	for _, line := range strings.Split(stderr, "\n") {
		if strings.Contains(line, " took ") {
			timing = append(timing, line)
		}
	}
	if len(timing) != 2 || !strings.HasPrefix(timing[0], "(fig6a took ") || !strings.Contains(timing[0], " sim events") ||
		!strings.HasPrefix(timing[1], "(fig6c took ") || strings.Contains(timing[1], "events") {
		t.Fatalf("timing lines %q: want fig6a's with sim events and fig6c's without", timing)
	}
}

// Fig 8 simulates the base run as its "flow bucketing" variant, and Fig 10's
// α=0.5 point is that same run: both reports print, and fig10's timing line
// counts only the events of its α=0.3 and α=0.7 runs.
func TestBaseRunSharedAcrossExhibits(t *testing.T) {
	if testing.Short() {
		t.Skip("packet simulations")
	}
	status, stdout, stderr := ucmpbench(t, "-exp", "fig8,fig10")
	if status != 0 {
		t.Fatalf("ucmpbench: exit status %d\n%s", status, stderr)
	}
	for _, title := range []string{"== Fig 8: accurate flow size vs flow bucketing", "== Fig 10: weight factor alpha"} {
		if !strings.Contains(stdout, title) {
			t.Errorf("stdout lacks %q:\n%s", title, stdout)
		}
	}
	var want uint64
	for _, alpha := range []float64{0.3, 0.7} {
		cfg := harness.ScaledConfig(harness.UCMP, transport.DCTCP, "websearch")
		cfg.SampleEvery = 500 * sim.Microsecond
		cfg.Alpha = alpha
		res, err := harness.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want += res.Events
	}
	var got uint64
	for _, line := range strings.Split(stderr, "\n") {
		if strings.HasPrefix(line, "(fig10 took ") {
			if _, err := fmt.Sscanf(line[strings.Index(line, ", ")+2:], "%d sim events", &got); err != nil {
				t.Fatalf("fig10 timing line %q: %v", line, err)
			}
		}
	}
	if got != want {
		t.Fatalf("fig10 counted %d sim events, want %d (its alpha=0.3 and alpha=0.7 runs)\n%s", got, want, stderr)
	}
}
