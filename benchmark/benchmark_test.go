package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// The driver re-executes its own binary for every repetition; under `go
// test` that binary is the test binary, which must then act as the child.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// TestManifestMatchesRegistry: BENCHMARK.json is what the driver reads and
// the registry is what the program prints; they must name the same
// workloads, metrics, units, directions and bounds.
func TestManifestMatchesRegistry(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var mf struct {
		Command    []string         `json:"command"`
		Paths      []string         `json:"paths"`
		RunSeconds int              `json:"run_seconds"`
		Workloads  []workloadDef    `json:"workloads"`
		EndToEnd   []manifestMetric `json:"end_to_end"`
		PerLayer   []manifestMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&mf); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./benchmark"}; !reflect.DeepEqual(mf.Command, want) {
		t.Errorf("command %q, want %q", mf.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(mf.Paths, want) {
		t.Errorf("paths %q, want %q", mf.Paths, want)
	}
	if mf.RunSeconds < 1 || mf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", mf.RunSeconds)
	}
	if !reflect.DeepEqual(mf.Workloads, workloads) {
		t.Errorf("workloads differ:\nmanifest %+v\nregistry %+v", mf.Workloads, workloads)
	}
	seen := map[string]bool{}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest lists %d metrics, registry %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: manifest %+v, registry %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.Bound) {
				t.Errorf("%s %s: manifest bound %v, registry %v", kind, w.Name, g.Bound, w.Bound)
			}
			if bounded && (w.Bound <= 0 || w.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", w.Name, w.Bound)
			}
			if !nameRE.MatchString(w.Name) || seen[w.Name] {
				t.Errorf("metric name %q is malformed or used twice", w.Name)
			}
			seen[w.Name] = true
		}
	}
	check("end_to_end", mf.EndToEnd, endToEnd, true)
	check("per_layer", mf.PerLayer, perLayer, false)
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
		seen[w.Name] = true
	}
}

// resultLine parses the driver's last line of output.
func resultLine(t *testing.T, out string) (correct bool, attempted, failed int, metrics map[string]reading) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r struct {
		Correct   *bool              `json:"correct"`
		Attempted *int               `json:"attempted"`
		Failed    *int               `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	if r.Correct == nil || r.Attempted == nil || r.Failed == nil || r.Metrics == nil {
		t.Fatalf("result object lacks a key: %s", lines[len(lines)-1])
	}
	return *r.Correct, *r.Attempted, *r.Failed, r.Metrics
}

// TestDriverContract drives every workload through the driver's command
// line at tiny scale, untraced and traced, and holds the result line to the
// contract: exactly the metrics of its kind, each once, each with its unit.
func TestDriverContract(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		for trace, want := range [][]metricDef{endToEnd, perLayer} {
			var out bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "0", "--trace", []string{"0", "1"}[trace], "-scale", scaleTiny, "-out", dir}
			if code := run(args, &out); code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s", w.Name, trace, code, out.String())
			}
			correct, attempted, failed, metrics := resultLine(t, out.String())
			if !correct || attempted < 1 || failed != 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.Name, trace, correct, attempted, failed)
			}
			if len(metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.Name, trace, len(metrics), len(want))
			}
			for _, m := range want {
				got, ok := metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v (present %v), want unit %q", w.Name, trace, m.Name, got, ok, m.Unit)
				}
				if trace == 0 && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, got.Value)
				}
				if n := strings.Count(out.String(), " "+m.Name+" "); n != 1 {
					t.Errorf("%s trace=%d: %s printed %d times", w.Name, trace, m.Name, n)
				}
			}
			if trace == 1 {
				if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
				gates := map[string]float64{"harness.wiring_drift": 0}
				if w.Name != "offline324" {
					gates["netsim.ledger_ok"] = 1
				}
				if w.Name == "warm512" {
					gates["harness.warm_equal"], gates["harness.resume_equal"], gates["core.symmetric"] = 1, 1, 1
				}
				for g, v := range gates {
					if metrics[g].Value != v {
						t.Errorf("%s: %s = %v, want %v", w.Name, g, metrics[g].Value, v)
					}
				}
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "tmp", "*")); len(left) > 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}

// TestFullSetComparesSame runs the full set once and compares its record
// with itself: every row must come out `same`.
func TestFullSetComparesSame(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if code := run([]string{"-scale", scaleTiny, "--trace", "1", "-out", dir}, &out); code != 0 {
		t.Fatalf("full set: exit %d\n%s", code, out.String())
	}
	records, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	var rec string
	for _, r := range records {
		if !strings.HasPrefix(filepath.Base(r), "trace-") {
			rec = r
		}
	}
	if rec == "" {
		t.Fatalf("no record written in %s: %v", dir, records)
	}
	r, err := readRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Machine.GoVersion == "" || r.Machine.NumCPU < 1 || len(r.Machine.Canary) != 1 || r.Machine.Canary[0].AluMs <= 0 {
		t.Errorf("machine record incomplete: %+v", r.Machine)
	}
	for _, w := range workloads {
		wr := r.Workloads[w.Name]
		if wr == nil || !wr.Correct || len(wr.EndToEnd) != len(endToEnd) || len(wr.PerLayer) != len(perLayer) {
			t.Fatalf("%s: incomplete record %+v", w.Name, wr)
		}
	}
	out.Reset()
	if code := run([]string{"-compare", rec, rec}, &out); code != 0 {
		t.Errorf("-compare of a record with itself: exit %d", code)
	}
	for _, bad := range []string{"worse", "better", "changed", "unresolved", "missing"} {
		if strings.Contains(out.String(), bad) {
			t.Errorf("-compare of a record with itself printed %q:\n%s", bad, out.String())
		}
	}
	if n := strings.Count(out.String(), "same"); n < len(workloads)*(len(endToEnd)+1) {
		t.Errorf("-compare printed %d `same` rows, want at least %d", n, len(workloads)*(len(endToEnd)+1))
	}
}

// TestRepetitionsCheckFingerprints: the second repetition repeats the first
// one's seed and must reproduce its fingerprint, the third moves on to a new
// seed, and a run that does not reproduce its seed's fingerprint fails the
// workload.
func TestRepetitionsCheckFingerprints(t *testing.T) {
	w, _ := findWorkload("websearch108")
	s, err := newSession(w, scaleTiny, 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	for i := 0; i < 3; i++ {
		if err := s.measure(0); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.reps) != 3 || len(s.probes) < 3*minProbes {
		t.Fatalf("%d repetitions, %d probes", len(s.reps), len(s.probes))
	}
	if s.reps[1].Fingerprint != s.reps[0].Fingerprint || s.reps[2].Fingerprint == s.reps[0].Fingerprint {
		t.Errorf("fingerprints %s %s %s: want the first two equal and the third new",
			s.reps[0].Fingerprint, s.reps[1].Fingerprint, s.reps[2].Fingerprint)
	}
	if len(s.failures) != 0 {
		t.Fatalf("failures on a clean run: %v", s.failures)
	}
	drifted := s.reps[0]
	drifted.Fingerprint = "0000000000000000"
	if s.check("drifted", s.args("run"), drifted) || len(s.failures) != 1 {
		t.Errorf("a changed fingerprint at a seed already run passed the check: %v", s.failures)
	}
	if _, failed := s.operations(); failed == 0 {
		t.Error("a failed check left the workload's operations counted as passed")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	got := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if want := [3]float64{3.5, 24, 160}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}
