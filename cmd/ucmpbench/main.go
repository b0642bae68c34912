// Command ucmpbench regenerates any table or figure of the paper by id.
//
//	ucmpbench -exp all             # everything (scaled configuration)
//	ucmpbench -exp fig6a,fig6c     # FCT + efficiency for web search
//	ucmpbench -exp table3 -full    # offline analyses at paper scale
//	ucmpbench -exp fig9 -workers 0 # sweep points run concurrently
//
// Simulation-based figures run on a scaled-down fabric by default so the
// full sweep finishes in minutes. -full runs the offline analyses at the
// paper's scale — the path analyses (Fig 5a/5b, 12a–c, 16, the schedule
// statistics) on the 108-ToR fabric, Tables 2–3 over all the paper's
// configurations — and lengthens the simulations. Every simulation
// exhibit runs through the process's one harness.Runner, which builds each
// path set once and simulates each distinct configuration once, for
// whichever exhibit asks first: Fig 6, 7, 15 and 17 share one grid per
// workload, and Fig 8–12d, the ablations, the MPTCP extension and the
// failure sweep share their UCMP+DCTCP web-search base run. -workers N fans
// each exhibit's runs out over N goroutines (1, the default, is serial; 0
// is GOMAXPROCS); reports are identical to the serial order. Each exhibit's
// wall-clock time and the simulation events of the runs it was first to get
// print to stderr, folded from those runs' Results, with any notes the runs
// recorded.
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
// -workers; -shards is for one long run.
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
	"ablation", "extension", "sweep", "failsweep", "sched",
}

// selectExps resolves the -exp value, a comma-separated list of ids, to the
// set of exhibits to run; the id "all" adds every one. Every id must be
// known: a typo must not turn into an empty, successful run.
func selectExps(spec string) (map[string]bool, error) {
	want := map[string]bool{}
	var unknown []string
	for _, e := range strings.Split(spec, ",") {
		switch e = strings.TrimSpace(e); {
		case e == "all":
			for _, id := range allExps {
				want[id] = true
			}
		case slices.Contains(allExps, e):
			want[e] = true
		default:
			unknown = append(unknown, fmt.Sprintf("%q", e))
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown experiment id %s (valid: all, %s)",
			strings.Join(unknown, ", "), strings.Join(allExps, ", "))
	}
	return want, nil
}

func main() {
	var (
		expF     = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		fullF    = flag.Bool("full", false, "paper-scale offline analyses and longer simulations")
		seedF    = flag.Int64("seed", 1, "seed")
		workersF = flag.Int("workers", 1, "run up to this many independent schemes/sweep points of an exhibit concurrently (1 = serial, 0 = GOMAXPROCS)")
		cpuProfF = flag.String("cpuprofile", "", "write a CPU profile covering the selected exhibits to this file")
		memProfF = flag.String("memprofile", "", "write a heap profile taken after the selected exhibits to this file")
		traceF   = flag.String("trace", "", "write a runtime execution trace covering the selected exhibits to this file")
		shardsF  = flag.Int("shards", 0, "run simulations on the sharded engine with this many workers (0/1 = serial)")
		schedF   = flag.Bool("schedstats", false, "report per-exhibit scheduler internals (pending high-water, cascades, cancels), event counts by kind and packet-memory high-water marks on stderr")
		cacheF   = flag.String("fabric-cache", "", "directory for the warm-fabric cache: compiled UCMP fabrics are mmap-loaded from it when present and saved into it after cold builds")
		ckptDirF = flag.String("checkpoint-dir", "", "directory for crash-recovery checkpoints: simulations snapshot there every -checkpoint-every of simulated time, and sweeps record completed trials in a sweep book")
		ckptEvF  = flag.Duration("checkpoint-every", 0, "simulated-time interval between checkpoints (0 = off)")
		resumeF  = flag.Bool("resume", false, "resume simulations and sweeps from -checkpoint-dir where checkpoints match; anything unmatched falls back to a clean cold run")
	)
	flag.Parse()
	want, err := selectExps(*expF)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ucmpbench: -exp: %v\n", err)
		os.Exit(2)
	}
	if *workersF < 0 {
		fmt.Fprintf(os.Stderr, "ucmpbench: -workers: %d is negative (1 = serial, 0 = GOMAXPROCS)\n", *workersF)
		os.Exit(2)
	}
	if *shardsF < 0 {
		fmt.Fprintf(os.Stderr, "ucmpbench: -shards: %d is negative (0/1 = serial)\n", *shardsF)
		os.Exit(2)
	}
	if *ckptEvF < 0 {
		fmt.Fprintf(os.Stderr, "ucmpbench: -checkpoint-every: %v is negative (0 = off)\n", *ckptEvF)
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

	sims := &harness.Runner{Workers: *workersF}
	if sims.Workers == 0 {
		sims.Workers = runtime.GOMAXPROCS(0)
	}
	r := runner{
		sims: sims, full: *fullF, seed: *seedF, shards: *shardsF, cacheDir: *cacheF,
		ckptDir: *ckptDirF, ckptEvery: sim.Time(ckptEvF.Nanoseconds()), resume: *resumeF,
	}
	folded := map[*harness.Result]bool{}
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
			// Events per delivered data packet beside the rate: a design that
			// spends fewer events on a packet is faster at a lower rate.
			perPkt := ""
			if f.delivered > 0 {
				perPkt = fmt.Sprintf(", %.1f events/data pkt", float64(f.events)/float64(f.delivered))
			}
			fmt.Fprintf(os.Stderr, "(%s took %.1fs, %d sim events, %.2fM events/s%s)\n",
				e, wall, f.events, float64(f.events)/wall/1e6, perPkt)
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

// exhibitStats is what one exhibit's stderr lines print, folded from the
// Results of the runs it simulated: counters sum, high-water marks take the
// largest any run reached, and notes keeps each distinct non-empty note,
// labelled with its field, in run order.
type exhibitStats struct {
	events    uint64
	delivered int64 // data packets delivered whole (Counters.DataDelivered)
	kinds     sim.EventKinds
	sched     sim.SchedStats
	shard     sim.ShardStats
	mem       netsim.MemStats
	notes     []string
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
		f.delivered += r.Counters.DataDelivered
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
	case "fig5a":
		rep, _ := harness.Fig5a(r.pathSet())
		fmt.Println(rep)
	case "fig5b":
		rep, _ := harness.Fig5b(r.pathSet())
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
		rep, out, err := testbed.RunAll(r.sims, testbed.Options{Seed: r.seed})
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
	case "sched":
		fmt.Println(harness.ScheduleStats(r.pathSet()))
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
		return show(harness.ExtensionMPTCP(r.sims, r.simBase()))
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
		fmt.Println("sweep: scheme x load trial matrix (harness.RunTrials; -workers fans trials out)")
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
