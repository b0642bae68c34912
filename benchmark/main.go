// Command benchmark is the repository's yardstick: four paper-scale
// workloads measured end to end from outside the program, a traced run that
// attributes the time to layers, and the correctness checks that make a
// faster number trustworthy. README.md in this directory says what each
// metric means and which workload should move it.
//
//	go run ./benchmark --workload websearch108 --seed 1 --seconds 15 --trace 0
//	go run ./benchmark [--trace 1]                 # every workload, writes benchmark/out/<rev>.json
//	go run ./benchmark -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	if enc := os.Getenv(childEnv); enc != "" {
		var a childArgs
		if err := json.Unmarshal([]byte(enc), &a); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark child: bad arguments:", err)
			os.Exit(2)
		}
		if err := childMain(a); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark child (%s %s): %v\n", a.Mode, a.Workload, err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is the parent's whole life; it returns the exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run this one workload and print the driver's result line; empty runs the full set")
		seed     = fs.Int64("seed", 1, "workload seed: the same seed gives the same flows")
		seconds  = fs.Float64("seconds", 15, "with -workload: keep starting repetitions until this much measuring time has passed")
		trace    = fs.Int("trace", 0, "1: the traced run and its per-layer metrics")
		scale    = fs.String("scale", scalePaper, "paper | tiny (16-ToR fabrics, for the unit test)")
		outDir   = fs.String("out", filepath.Join("benchmark", "out"), "where records, traces and scratch files go")
		compare  = fs.Bool("compare", false, "compare two record files: -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	}
	var err error
	ok := false
	if *workload != "" {
		ok, err = driverRun(stdout, *workload, *scale, *seed, *seconds, *trace == 1, *outDir)
	} else {
		ok, err = fullRun(stdout, *scale, *seed, *trace == 1, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// reading is one metric in the driver's result line.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverRun measures one workload the way the driver asks and prints the
// result line last.
func driverRun(stdout io.Writer, workload, scale string, seed int64, seconds float64, trace bool, outDir string) (bool, error) {
	w, found := findWorkload(workload)
	if !found {
		return false, fmt.Errorf("unknown workload %q", workload)
	}
	s, err := newSession(w, scale, seed, outDir)
	if err != nil {
		return false, err
	}
	defer s.close()
	metrics, values := endToEnd, map[string]float64{}
	if trace {
		if err := s.measure(0); err != nil {
			return false, err
		}
		if values, err = s.trace(); err != nil {
			return false, err
		}
		metrics = perLayer
	} else {
		if err := s.measure(seconds); err != nil {
			return false, err
		}
		for name, v := range s.endToEndValues() {
			values[name] = median(v)
		}
	}
	out := map[string]reading{}
	for _, m := range metrics {
		out[m.Name] = reading{values[m.Name], m.Unit}
		fmt.Fprintf(stdout, "%-22s %-34s %14.6g %s\n", w.Name, m.Name, values[m.Name], m.Unit)
	}
	for _, f := range s.failures {
		fmt.Fprintf(stdout, "%-22s FAILED CHECK: %s\n", w.Name, f)
	}
	attempted, failed := s.operations()
	line, err := json.Marshal(map[string]any{
		"correct": len(s.failures) == 0, "attempted": attempted, "failed": failed, "metrics": out,
	})
	if err != nil {
		return false, err
	}
	fmt.Fprintln(stdout, string(line))
	return len(s.failures) == 0, nil
}

// summary is one end-to-end metric over a set's repetitions.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarizeValues(unit string, v []float64) summary {
	q := quartiles(v)
	min := q[1]
	for _, x := range v {
		if x < min {
			min = x
		}
	}
	return summary{Unit: unit, Median: q[1], Min: min, Q1: q[0], Q3: q[2], N: len(v), Values: v}
}

// spread is the inter-quartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

type workloadRecord struct {
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Failures    []string           `json:"failures,omitempty"`
	Fingerprint string             `json:"fingerprint"`
	EndToEnd    map[string]summary `json:"end_to_end"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
}

type canaryReading struct {
	Round int     `json:"round"`
	AluMs float64 `json:"machine.canary_alu_ms"`
	MemMs float64 `json:"machine.canary_mem_ms"`
}

// machine is the record of where and how a set was measured.
type machine struct {
	Revision   string          `json:"revision"`
	GoVersion  string          `json:"go_version"`
	NumCPU     int             `json:"nproc"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	CPUModel   string          `json:"cpu_model"`
	Scale      string          `json:"scale"`
	Rounds     int             `json:"rounds"`
	Seed       int64           `json:"seed"`
	BusyS      float64         `json:"busy_s"`
	Canary     []canaryReading `json:"canary"`
}

type record struct {
	Machine   machine                    `json:"machine"`
	Workloads map[string]*workloadRecord `json:"workloads"`
}

// fullRun is the full set: every round measures each workload once, as a
// driver run of zero seconds does, so that slow drift of the machine lands
// on all of them alike; a canary before every round makes the drift visible,
// and offline324 — by far the longest — sits out the even rounds.
func fullRun(stdout io.Writer, scale string, seed int64, trace bool, outDir string) (bool, error) {
	start := time.Now()
	rounds := roundsFor(scale)
	rec := record{
		Machine: machine{
			Revision: revision(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
			GOMAXPROCS: childProcs(), CPUModel: cpuModel(), Scale: scale, Rounds: rounds, Seed: seed,
		},
		Workloads: map[string]*workloadRecord{},
	}
	var sessions []*session
	defer func() {
		for _, s := range sessions {
			s.close()
		}
		os.Remove(filepath.Join(outDir, "tmp")) // only if the last session emptied it
	}()
	for _, w := range workloads {
		s, err := newSession(w, scale, seed, outDir)
		if err != nil {
			return false, err
		}
		sessions = append(sessions, s)
	}
	for round := 1; round <= rounds; round++ {
		cn, err := spawn(childArgs{Mode: "canary", Scale: scale})
		if err != nil {
			return false, err
		}
		rec.Machine.Canary = append(rec.Machine.Canary, canaryReading{round, cn.Layer["machine.canary_alu_ms"], cn.Layer["machine.canary_mem_ms"]})
		for _, s := range sessions {
			if s.spec.Offline && round%2 == 0 {
				continue
			}
			fmt.Fprintf(os.Stderr, "round %d/%d: %s\n", round, rounds, s.w.Name)
			if err := s.measure(0); err != nil {
				return false, err
			}
		}
	}
	ok := true
	for _, s := range sessions {
		wr := &workloadRecord{Fingerprint: s.reps[0].Fingerprint, EndToEnd: map[string]summary{}}
		if trace {
			fmt.Fprintf(os.Stderr, "trace: %s\n", s.w.Name)
			layer, err := s.trace()
			if err != nil {
				return false, err
			}
			wr.PerLayer = layer
		}
		values := s.endToEndValues()
		for _, m := range endToEnd {
			wr.EndToEnd[m.Name] = summarizeValues(m.Unit, values[m.Name])
		}
		wr.Attempted, wr.Failed = s.operations()
		wr.Failures = s.failures
		wr.Correct = len(s.failures) == 0
		ok = ok && wr.Correct
		rec.Workloads[s.w.Name] = wr
	}
	rec.Machine.BusyS = time.Since(start).Seconds()
	printRecord(stdout, rec)
	path := filepath.Join(outDir, rec.Machine.Revision+".json")
	if err := writeJSON(path, rec); err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "record written to %s (%.0f s busy)\n", path, rec.Machine.BusyS)
	return ok, nil
}

// printRecord prints every metric by name with its unit. A timing row
// whose own spread exceeds its bound cannot resolve a change of that size
// and says so.
func printRecord(stdout io.Writer, rec record) {
	fmt.Fprintf(stdout, "%-22s %-34s %12s %-6s %12s %12s %12s %3s\n", "workload", "metric", "median", "unit", "min", "q1", "q3", "n")
	for _, w := range workloads {
		wr := rec.Workloads[w.Name]
		for _, m := range endToEnd {
			s := wr.EndToEnd[m.Name]
			note := ""
			if s.spread() > m.Bound {
				note = fmt.Sprintf("  unresolved: spread %.1f%% > bound %.0f%%", 100*s.spread(), 100*m.Bound)
			}
			fmt.Fprintf(stdout, "%-22s %-34s %12.6g %-6s %12.6g %12.6g %12.6g %3d%s\n", w.Name, m.Name, s.Median, s.Unit, s.Min, s.Q1, s.Q3, s.N, note)
		}
		fmt.Fprintf(stdout, "%-22s %-34s %12d %-6s  (failed %d)\n", w.Name, "operations", wr.Attempted, "count", wr.Failed)
		if wr.PerLayer != nil {
			for _, m := range perLayer {
				fmt.Fprintf(stdout, "%-22s %-34s %12.6g %s\n", w.Name, m.Name, wr.PerLayer[m.Name], m.Unit)
			}
		}
		for _, f := range wr.Failures {
			fmt.Fprintf(stdout, "%-22s FAILED CHECK: %s\n", w.Name, f)
		}
	}
	for _, c := range rec.Machine.Canary {
		fmt.Fprintf(stdout, "%-22s round %d: machine.canary_alu_ms %.1f ms, machine.canary_mem_ms %.1f ms\n", "machine", c.Round, c.AluMs, c.MemMs)
	}
}

// revision names the record file. A driver checkout is not a git
// repository; its records are called "worktree".
func revision() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "worktree"
	}
	rev := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		rev += "-dirty"
	}
	return rev
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
