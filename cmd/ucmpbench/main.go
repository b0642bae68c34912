// Command ucmpbench regenerates any table or figure of the paper by id.
//
//	ucmpbench -exp all            # everything (scaled configuration)
//	ucmpbench -exp fig6a,fig6c    # FCT + efficiency for web search
//	ucmpbench -exp table3 -full   # offline analyses at paper scale
//	ucmpbench -exp fig9 -parallel # sweep points run concurrently
//
// Simulation-based figures run on a scaled-down fabric by default so the
// full sweep finishes in minutes; -full switches the offline analyses to
// the paper's 108-ToR fabric and lengthens the simulations. Every simulation
// exhibit hands its run configurations to the process's one harness.Runner,
// which simulates each distinct configuration once, for whichever exhibit
// asks first: Fig 6, 7, 15 and 17 share one grid per workload, and Fig 8–12d,
// the ablations, the MPTCP extension and the failure sweep share their
// UCMP+DCTCP web-search base run. -parallel fans each exhibit's runs out over
// -workers goroutines (default GOMAXPROCS); reports are identical to the
// serial order. Each exhibit's wall-clock time and the simulation events of
// the runs it was first to get print to stderr, folded from those runs'
// Results, with any notes the runs recorded.
//
// Profiling: -cpuprofile and -memprofile write pprof files covering the
// selected exhibits, for chasing simulator hot spots; -trace captures a
// runtime execution trace (shard workers are labeled shard-worker=<i>, so
// `go tool trace` shows each worker's windows and barrier waits):
//
//	ucmpbench -exp fig6a -cpuprofile cpu.out -memprofile mem.out
//	ucmpbench -exp fig6a -shards 8 -trace trace.out
//	go tool pprof cpu.out
//
// -shards N (N > 1) runs each simulation on the conservative-PDES sharded
// engine with N workers when the configuration supports it (see
// harness.Shardable); unsupported configurations fall back to the serial
// engine with identical output. A sweep of independent trials wants
// -parallel; -shards is for one long run.
//
// Performance is measured by the repository benchmark (`make benchmark`,
// BENCHMARK.json); `make bench` runs the per-layer `go test -bench` probes
// for the offline build and the netsim packet path.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"ucmp/internal/checkpoint"
	"ucmp/internal/core"
	"ucmp/internal/harness"
	"ucmp/internal/netsim"
	"ucmp/internal/sim"
	"ucmp/internal/testbed"
	"ucmp/internal/topo"
	"ucmp/internal/transport"
)

var allExps = []string{
	"table1", "table2", "table3",
	"fig5a", "fig5b", "fig6a", "fig6b", "fig6c", "fig6d",
	"fig7", "fig8", "fig9", "fig10", "fig11",
	"fig12", "fig12d", "fig13", "fig14", "fig15", "fig16", "fig17",
	"ablation", "extension", "sweep", "failsweep",
	"scale",
}

// heavyExps are excluded from -exp all: the 1024-ToR scaling sweep builds
// gigabyte-class fabrics and is requested explicitly (`-exp scale`).
var heavyExps = map[string]bool{"scale": true}

// selectExps resolves the -exp value to the set of exhibits to run: "all"
// (everything but heavyExps) or a comma-separated list of ids, every one of
// which must be known — a typo must not turn into an empty, successful run.
func selectExps(spec string) (map[string]bool, error) {
	want := map[string]bool{}
	if spec == "all" {
		for _, e := range allExps {
			if !heavyExps[e] {
				want[e] = true
			}
		}
		return want, nil
	}
	known := map[string]bool{}
	for _, e := range allExps {
		known[e] = true
	}
	var unknown []string
	for _, e := range strings.Split(spec, ",") {
		e = strings.TrimSpace(e)
		if !known[e] {
			unknown = append(unknown, fmt.Sprintf("%q", e))
		}
		want[e] = true
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown experiment id %s (valid: all, %s)",
			strings.Join(unknown, ", "), strings.Join(allExps, ", "))
	}
	return want, nil
}

func main() {
	var (
		expF      = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		fullF     = flag.Bool("full", false, "paper-scale offline analyses and longer simulations")
		seedF     = flag.Int64("seed", 1, "seed")
		parallelF = flag.Bool("parallel", false, "run independent schemes/sweep points of an exhibit concurrently")
		workersF  = flag.Int("workers", 0, "bound on the -parallel worker pool (0 = GOMAXPROCS)")
		cpuProfF  = flag.String("cpuprofile", "", "write a CPU profile covering the selected exhibits to this file")
		memProfF  = flag.String("memprofile", "", "write a heap profile taken after the selected exhibits to this file")
		traceF    = flag.String("trace", "", "write a runtime execution trace covering the selected exhibits to this file")
		shardsF   = flag.Int("shards", 0, "run simulations on the sharded engine with this many workers (0/1 = serial)")
		schedF    = flag.Bool("schedstats", false, "report per-exhibit scheduler internals (pending high-water, cascades, cancels), event counts by kind and packet-memory high-water marks on stderr")
		scaleNsF  = flag.String("scale-ns", "", "comma-separated fabric sizes for -exp scale (empty = 108,256,512,1024)")
		cacheF    = flag.String("fabric-cache", "", "directory for the warm-fabric cache: compiled UCMP fabrics are mmap-loaded from it when present and saved into it after cold builds")
		ckptDirF  = flag.String("checkpoint-dir", "", "directory for crash-recovery checkpoints: simulations snapshot there every -checkpoint-every of simulated time, and sweeps record completed trials in a sweep book")
		ckptEvF   = flag.Duration("checkpoint-every", 0, "simulated-time interval between checkpoints (0 = off)")
		resumeF   = flag.Bool("resume", false, "resume simulations and sweeps from -checkpoint-dir where checkpoints match; anything unmatched falls back to a clean cold run")
	)
	flag.Parse()
	want, err := selectExps(*expF)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ucmpbench: -exp: %v\n", err)
		os.Exit(2)
	}

	if *cpuProfF != "" {
		f, err := os.Create(*cpuProfF)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ucmpbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ucmpbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *traceF != "" {
		f, err := os.Create(*traceF)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ucmpbench: -trace: %v\n", err)
			os.Exit(1)
		}
		if err := trace.Start(f); err != nil {
			fmt.Fprintf(os.Stderr, "ucmpbench: -trace: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			trace.Stop()
			f.Close()
		}()
	}
	if *memProfF != "" {
		defer func() {
			f, err := os.Create(*memProfF)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ucmpbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "ucmpbench: -memprofile: %v\n", err)
			}
		}()
	}

	sims := &harness.Runner{Workers: 1}
	if *parallelF {
		sims.Workers = *workersF
		if sims.Workers <= 0 {
			sims.Workers = runtime.GOMAXPROCS(0)
		}
	}
	r := runner{
		sims: sims, full: *fullF, seed: *seedF, shards: *shardsF, cacheDir: *cacheF,
		ckptDir: *ckptDirF, ckptEvery: sim.Time(ckptEvF.Nanoseconds()), resume: *resumeF,
	}
	folded := map[*harness.Result]bool{}
	if *scaleNsF != "" {
		if r.scaleNs, err = parseScaleNs(*scaleNsF); err != nil {
			fmt.Fprintf(os.Stderr, "ucmpbench: -scale-ns: %v\n", err)
			os.Exit(1)
		}
	}
	for _, e := range allExps {
		if !want[e] {
			continue
		}
		start := time.Now()
		results, err := r.run(e)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ucmpbench %s: %v\n", e, err)
			os.Exit(1)
		}
		wall := time.Since(start).Seconds()
		f := foldResults(results, folded)
		if f.events > 0 {
			fmt.Fprintf(os.Stderr, "(%s took %.1fs, %d sim events, %.2fM events/s)\n",
				e, wall, f.events, float64(f.events)/wall/1e6)
		} else {
			fmt.Fprintf(os.Stderr, "(%s took %.1fs)\n", e, wall)
		}
		for _, note := range f.notes {
			fmt.Fprintf(os.Stderr, "(%s %s)\n", e, note)
		}
		if *schedF {
			s := f.sched
			fmt.Fprintf(os.Stderr, "(%s sched: pending-hwm %d, cascades %d, overflow %d, cancels %d, dead-pops %d, chases %d)\n",
				e, s.PendingHighWater, s.Cascades, s.OverflowPushes, s.Cancels, s.DeadPops, s.Chases)
			if f.kinds.Total() > 0 {
				fmt.Fprintf(os.Stderr, "(%s events by kind: %s)\n", e, formatEventKinds(f.kinds))
			}
			if m := f.mem; m.PeakPackets > 0 {
				fmt.Fprintf(os.Stderr, "(%s packet memory, largest run: peak live packets %d, peak parked VOQ packets %d, VOQ chunks %d, peak live calendar slots %d, calendar queues created %d)\n",
					e, m.PeakPackets, m.PeakParked, m.VOQChunks, m.PeakCalSlots, m.CalQueues)
			}
			if sh := f.shard; sh.Windows > 0 {
				fmt.Fprintf(os.Stderr, "(%s shards: windows %d, cross-events %d, merge-batches %d, mailbox-hwm %d)\n",
					e, sh.Windows, sh.CrossEvents, sh.MergeBatches, sh.MailboxHighWater)
			}
		}
		fmt.Fprintln(os.Stderr)
	}
}

// parseScaleNs reads -scale-ns: comma-separated fabric sizes, each a whole
// decimal number of at least 2 ToRs.
func parseScaleNs(spec string) ([]int, error) {
	var ns []int
	for _, s := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad value %q", s)
		}
		ns = append(ns, n)
	}
	return ns, nil
}

// exhibitStats is what one exhibit's stderr lines print, folded from the
// Results of the runs it simulated: counters sum, high-water marks take the
// largest any run reached, and notes keeps each distinct non-empty note,
// labelled with its field, in run order.
type exhibitStats struct {
	events uint64
	kinds  sim.EventKinds
	sched  sim.SchedStats
	shard  sim.ShardStats
	mem    netsim.MemStats
	notes  []string
}

// foldResults folds the results not yet in folded and adds them to it, so
// a run the Runner serves to several exhibits counts once per process, in
// the first exhibit that got it.
func foldResults(results []*harness.Result, folded map[*harness.Result]bool) exhibitStats {
	var f exhibitStats
	for _, r := range results {
		if folded[r] {
			continue
		}
		folded[r] = true
		f.events += r.Events
		f.kinds.Add(&r.EventKinds)

		f.sched.PendingHighWater = max(f.sched.PendingHighWater, r.Sched.PendingHighWater)
		f.sched.Cascades += r.Sched.Cascades
		f.sched.OverflowPushes += r.Sched.OverflowPushes
		f.sched.Cancels += r.Sched.Cancels
		f.sched.DeadPops += r.Sched.DeadPops
		f.sched.Chases += r.Sched.Chases

		f.shard.Windows += r.ShardStats.Windows
		f.shard.CrossEvents += r.ShardStats.CrossEvents
		f.shard.MergeBatches += r.ShardStats.MergeBatches
		f.shard.MailboxHighWater = max(f.shard.MailboxHighWater, r.ShardStats.MailboxHighWater)

		f.mem.PeakPackets = max(f.mem.PeakPackets, r.Mem.PeakPackets)
		f.mem.PeakParked = max(f.mem.PeakParked, r.Mem.PeakParked)
		f.mem.VOQChunks = max(f.mem.VOQChunks, r.Mem.VOQChunks)
		f.mem.PeakCalSlots = max(f.mem.PeakCalSlots, r.Mem.PeakCalSlots)
		f.mem.CalQueues = max(f.mem.CalQueues, r.Mem.CalQueues)

		f.addNote("shards", r.ShardNote)
		f.addNote("resume", r.ResumeNote)
		f.addNote("path set", r.PathSet.Note)
	}
	return f
}

// addNote lists "label: note" unless note is empty or already listed.
func (f *exhibitStats) addNote(label, note string) {
	if note == "" {
		return
	}
	if note = label + ": " + note; !slices.Contains(f.notes, note) {
		f.notes = append(f.notes, note)
	}
}

// formatEventKinds renders the non-zero slots as "Name count", largest first
// (ties in registry order).
func formatEventKinds(k sim.EventKinds) string {
	order := make([]int, 0, len(k))
	for i, c := range k {
		if c > 0 {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return k[order[a]] > k[order[b]] })
	parts := make([]string, len(order))
	for i, kind := range order {
		parts[i] = fmt.Sprintf("%s %d", checkpoint.KindName(uint8(kind)), k[kind])
	}
	return strings.Join(parts, ", ")
}

type runner struct {
	sims      *harness.Runner
	full      bool
	seed      int64
	shards    int
	cacheDir  string
	ckptDir   string
	ckptEvery sim.Time
	resume    bool
	scaleNs   []int

	ps *core.PathSet
}

// analysisConfig is the fabric used for offline path analyses.
func (r *runner) analysisConfig() topo.Config {
	if r.full {
		return topo.PaperDefault()
	}
	cfg := topo.Scaled()
	cfg.NumToRs, cfg.Uplinks = 32, 4
	return cfg
}

func (r *runner) pathSet() *core.PathSet {
	if r.ps == nil {
		fab := topo.MustFabric(r.analysisConfig(), "round-robin", 1)
		r.ps = core.BuildPathSet(fab, 0.5)
	}
	return r.ps
}

// simBase is the base packet-simulation configuration.
func (r *runner) simBase() harness.SimConfig {
	cfg := harness.ScaledConfig(harness.UCMP, transport.DCTCP, "websearch")
	cfg.Seed = r.seed
	cfg.Shards = r.shards
	cfg.FabricCacheDir = r.cacheDir
	cfg.CheckpointDir = r.ckptDir
	cfg.CheckpointEvery = r.ckptEvery
	cfg.Resume = r.resume
	if r.full {
		cfg.Duration = 20 * sim.Millisecond
		cfg.Horizon = 80 * sim.Millisecond
	}
	return cfg
}

// run prints exhibit exp and returns the Results of the simulations it ran.
func (r *runner) run(exp string) ([]*harness.Result, error) {
	switch exp {
	case "table1":
		fmt.Println(harness.Table1())
	case "table2":
		scales := harness.Table2Scales
		if !r.full {
			scales = scales[:2]
		}
		rep, _ := harness.Table2(scales)
		fmt.Println(rep)
	case "table3":
		rows := harness.Table3Scales
		if !r.full {
			rows = []harness.Table3Row{{SliceUs: 1, N: 108, D: 6}, {SliceUs: 1, N: 324, D: 6}, {SliceUs: 5, N: 1200, D: 12}}
		}
		fmt.Println(harness.Table3(rows))
	case "scale":
		rep, points, err := harness.ScaleSweep(harness.ScaleConfig{Ns: r.scaleNs, Seed: r.seed, CacheDir: r.cacheDir})
		if err != nil {
			return nil, err
		}
		fmt.Println(rep)
		var ran []*harness.Result
		for _, p := range points {
			ran = append(ran, p.Sim)
		}
		return ran, nil
	case "fig5a":
		rep, _ := harness.Fig5a(r.pathSet())
		fmt.Println(rep)
	case "fig5b":
		stride := 1
		if r.full {
			stride = 3
		}
		rep, _ := harness.Fig5b(r.pathSet(), stride)
		fmt.Println(rep)
	case "fig6a", "fig6c", "fig7", "fig15", "fig6b", "fig6d", "fig17":
		wl := "websearch"
		if exp == "fig6b" || exp == "fig6d" || exp == "fig17" {
			wl = "datamining"
		}
		grid, err := harness.RunSchemes(r.sims, r.simBase(), wl, harness.Fig6Schemes(wl == "datamining"))
		if err != nil {
			return nil, err
		}
		switch exp {
		case "fig6a", "fig6b":
			fmt.Println(harness.Fig6FCT(grid, wl))
		case "fig6c", "fig6d":
			fmt.Println(harness.Fig6Efficiency(grid, wl))
		case "fig7", "fig17":
			fmt.Println(harness.Fig7LinkUtil(grid, wl))
		default:
			fmt.Println(harness.Fig15LoadBalance(grid))
		}
		ran := make([]*harness.Result, len(grid))
		for i, sr := range grid {
			ran[i] = sr.Result
		}
		return ran, nil
	case "fig8":
		return show(harness.Fig8Bucketing(r.sims, r.simBase()))
	case "fig9":
		return show(harness.Fig9Reconf(r.sims, r.simBase(), []sim.Time{10 * sim.Nanosecond, 1 * sim.Microsecond, 10 * sim.Microsecond}))
	case "fig10":
		return show(harness.Fig10Alpha(r.sims, r.simBase(), []float64{0.3, 0.5, 0.7}))
	case "fig11":
		return show(harness.Fig11Slice(r.sims, r.simBase(), []sim.Time{10 * sim.Microsecond, 50 * sim.Microsecond, 300 * sim.Microsecond}))
	case "fig12":
		rep, _ := harness.Fig12abc(r.pathSet(), r.seed)
		fmt.Println(rep)
	case "fig12d":
		return show(harness.Fig12d(r.sims, r.simBase(), []float64{0, 0.01, 0.03, 0.05}))
	case "fig13":
		rep, out, err := testbed.RunAll(testbed.Options{Seed: r.seed})
		if err != nil {
			return nil, err
		}
		fmt.Println(rep)
		var ran []*harness.Result
		for _, tr := range out {
			ran = append(ran, tr.Sim)
		}
		return ran, nil
	case "fig14":
		rep, _ := harness.Fig14()
		fmt.Println(rep)
	case "fig16":
		rep, _ := harness.Fig16(r.analysisConfig(), 7)
		fmt.Println(rep)
	case "ablation":
		out, err := show(harness.AblationPolicy(r.sims, r.simBase()))
		if err != nil {
			return nil, err
		}
		out2, err := show(harness.AblationParallel(r.sims, r.simBase()))
		if err != nil {
			return nil, err
		}
		fmt.Println(harness.AblationSchedule(108, 6))
		return append(out, out2...), nil
	case "extension":
		out, err := show(harness.ExtensionCongestion(r.sims, r.simBase()))
		if err != nil {
			return nil, err
		}
		rep, res, err := harness.ExtensionAlphaController(r.simBase(), 0.06)
		if err != nil {
			return nil, err
		}
		fmt.Println(rep)
		out3, err := show(harness.ExtensionMPTCP(r.sims, r.simBase()))
		if err != nil {
			return nil, err
		}
		return append(append(out, res), out3...), nil
	case "failsweep":
		return show(harness.FailureSweep(r.sims, r.simBase(), []float64{0, 0.02, 0.05, 0.1}))
	case "sweep":
		trials := harness.SweepLoad(r.simBase(),
			[]harness.RoutingKind{harness.UCMP, harness.VLB, harness.KSP5},
			[]float64{0.2, 0.4, 0.6})
		results, err := r.sims.RunTrials(trials)
		if err != nil {
			return nil, err
		}
		fmt.Println("sweep: scheme x load trial matrix (harness.RunTrials; -parallel fans trials out)")
		fmt.Print(harness.SummarizeTrials(trials, results))
		return results, nil
	default:
		return nil, fmt.Errorf("unknown experiment %q", exp)
	}
	return nil, nil
}

// show prints an exhibit driver's report and passes its Results through.
func show(rep *harness.Report, out []*harness.Result, err error) ([]*harness.Result, error) {
	if err != nil {
		return nil, err
	}
	fmt.Println(rep)
	return out, nil
}
