package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ucmp/internal/harness"
	"ucmp/internal/sim"
	"ucmp/internal/transport"
)

// runMainEnv makes the test binary act as ucmpbench itself, so the exit-code
// test drives the real main without a separate build.
const runMainEnv = "UCMPBENCH_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestSelectExps(t *testing.T) {
	want, err := selectExps("fig9, table1")
	if err != nil || len(want) != 2 || !want["fig9"] || !want["table1"] {
		t.Fatalf("selectExps(list) = %v, %v", want, err)
	}
	all, err := selectExps("all")
	if err != nil || !all["fig6a"] || all["scale"] || len(all) != len(allExps)-len(heavyExps) {
		t.Fatalf("selectExps(all) = %v, %v", all, err)
	}
	for _, spec := range []string{"bogus", "fig9,fgi8", "fig9,", ""} {
		if _, err := selectExps(spec); err == nil {
			t.Errorf("selectExps(%q) accepted an unknown id", spec)
		}
	}
	_, err = selectExps("fig9,fgi8,nope")
	if err == nil || !strings.Contains(err.Error(), `"fgi8", "nope"`) || !strings.Contains(err.Error(), "fig17") {
		t.Fatalf("error should name every unknown id and the valid list: %v", err)
	}
}

// A typo in -exp used to run nothing and exit 0. It must exit 2 before any
// exhibit runs, naming the bad id on stderr.
func TestUnknownExpExitsNonZero(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-exp", "table1,bogus")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2; stderr: %s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), `"bogus"`) || !strings.Contains(stderr.String(), "table1") {
		t.Fatalf("stderr does not name the bad id and the valid list: %s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("an exhibit ran before the id check: %s", stdout.String())
	}
}

// -scale-ns takes whole decimal sizes only: trailing garbage used to be
// dropped, reading "5l2" as 5.
func TestParseScaleNs(t *testing.T) {
	ns, err := parseScaleNs("256, 512")
	if err != nil || !slices.Equal(ns, []int{256, 512}) {
		t.Fatalf("parseScaleNs(\"256, 512\") = %v, %v", ns, err)
	}
	for _, spec := range []string{"5l2", "1024x", "2e3", "1", "256,"} {
		if ns, err := parseScaleNs(spec); err == nil {
			t.Errorf("parseScaleNs(%q) = %v, want an error", spec, ns)
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
	cmd := exec.Command(os.Args[0], "-exp", "fig6a,fig6c")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("ucmpbench: %v\n%s", err, stderr.String())
	}
	for _, title := range []string{"== Fig 6 FCT vs flow size, websearch", "== Fig 6 bandwidth efficiency, websearch"} {
		if !strings.Contains(stdout.String(), title) {
			t.Errorf("stdout lacks %q:\n%s", title, stdout.String())
		}
	}
	var timing []string
	for _, line := range strings.Split(stderr.String(), "\n") {
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
	cmd := exec.Command(os.Args[0], "-exp", "fig8,fig10")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("ucmpbench: %v\n%s", err, stderr.String())
	}
	for _, title := range []string{"== Fig 8: accurate flow size vs flow bucketing", "== Fig 10: weight factor alpha"} {
		if !strings.Contains(stdout.String(), title) {
			t.Errorf("stdout lacks %q:\n%s", title, stdout.String())
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
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(line, "(fig10 took ") {
			if _, err := fmt.Sscanf(line[strings.Index(line, ", ")+2:], "%d sim events", &got); err != nil {
				t.Fatalf("fig10 timing line %q: %v", line, err)
			}
		}
	}
	if got != want {
		t.Fatalf("fig10 counted %d sim events, want %d (its alpha=0.3 and alpha=0.7 runs)\n%s", got, want, stderr.String())
	}
}
