// Command ucmpsim runs one packet-level RDCN simulation: a routing scheme
// paired with a transport over a Poisson workload, printing FCT statistics,
// bandwidth efficiency, link utilization, and rerouting counters.
//
// Examples:
//
//	ucmpsim -routing ucmp -transport dctcp -workload websearch -load 0.4
//	ucmpsim -routing opera1 -transport ndp -tors 32 -duration 10ms
//	ucmpsim -routing vlb -workload datamining -relax
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"ucmp/internal/failure"
	"ucmp/internal/harness"
	"ucmp/internal/netsim"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
	"ucmp/internal/traceio"
	"ucmp/internal/transport"
)

func main() {
	var (
		routingF   = flag.String("routing", "ucmp", "routing scheme: ucmp|vlb|ksp1|ksp5|opera1|opera5")
		transportF = flag.String("transport", "dctcp", "transport: dctcp|ndp|tcp|rotor|mptcp")
		workloadF  = flag.String("workload", "websearch", "workload: websearch|datamining")
		loadF      = flag.Float64("load", 0.4, "target host-link load")
		alphaF     = flag.Float64("alpha", 0.5, "UCMP weight factor")
		relaxF     = flag.Bool("relax", false, "enable UCMP latency relaxation for long flows")
		torsF      = flag.Int("tors", 16, "number of ToRs (even)")
		uplinksF   = flag.Int("uplinks", 3, "uplinks (circuit switches) per ToR")
		hostsF     = flag.Int("hosts", 2, "hosts per ToR")
		bpsF       = flag.Float64("gbps", 40, "link bandwidth in Gbps")
		sliceF     = flag.Duration("slice", 50*time.Microsecond, "time slice duration")
		reconfF    = flag.Duration("reconf", 10*time.Nanosecond, "reconfiguration delay")
		durationF  = flag.Duration("duration", 4*time.Millisecond, "traffic generation window")
		horizonF   = flag.Duration("horizon", 0, "simulation horizon (0 = 4x duration)")
		seedF      = flag.Int64("seed", 1, "workload seed")
		clipF      = flag.Int64("maxflow", 64<<20, "clip flow sizes to this many bytes (0 = off)")
		failF      = flag.Float64("faillinks", 0, "fraction of uplink cables failed from the start (router-visible)")
		rtTorsF    = flag.Float64("failtors", 0, "fraction of ToRs failed at runtime (-failat)")
		rtLinksF   = flag.Float64("faillinks-rt", 0, "fraction of uplink cables failed at runtime (-failat)")
		rtSwF      = flag.Float64("failswitches", 0, "fraction of circuit switches failed at runtime (-failat)")
		failAtF    = flag.Duration("failat", time.Millisecond, "when runtime failures strike")
		repairAtF  = flag.Duration("repairat", -1, "when runtime failures repair (<0 = never)")
		paper      = flag.Bool("paper", false, "use the paper's 108-ToR/100Gbps configuration")
		flowsF     = flag.String("flows", "", "CSV flow trace to replay instead of the Poisson workload")
		fctOutF    = flag.String("fctout", "", "write per-flow results to this CSV file")
		cacheF     = flag.String("fabric-cache", "", "directory for the warm-fabric cache: the compiled UCMP fabric is mmap-loaded from it when present and saved into it after a cold build")
		ckptDirF   = flag.String("checkpoint-dir", "", "directory for crash-recovery checkpoints; with -checkpoint-every, the full simulation state is snapshotted there periodically")
		ckptEvF    = flag.Duration("checkpoint-every", 0, "simulated-time interval between checkpoints (0 = off)")
		resumeF    = flag.Bool("resume", false, "resume from the checkpoint in -checkpoint-dir if one matches this configuration; falls back to a clean cold run otherwise")
	)
	flag.Parse()

	cfg := harness.SimConfig{
		Routing:     harness.RoutingKind(*routingF),
		Transport:   transport.Kind(*transportF),
		Workload:    *workloadF,
		Load:        *loadF,
		Alpha:       *alphaF,
		Relax:       *relaxF,
		Duration:    sim.Time(durationF.Nanoseconds()),
		Horizon:     sim.Time(horizonF.Nanoseconds()),
		Seed:        *seedF,
		MaxFlowSize: *clipF,
		SampleEvery: 500 * sim.Microsecond,

		FabricCacheDir: *cacheF,

		CheckpointDir:   *ckptDirF,
		CheckpointEvery: sim.Time(ckptEvF.Nanoseconds()),
		Resume:          *resumeF,
	}
	if *paper {
		// -paper fixes the whole fabric; a topology flag next to it would
		// be silently ignored.
		var ignored []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "tors", "uplinks", "hosts", "gbps", "slice", "reconf":
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			fmt.Fprintf(os.Stderr, "ucmpsim: -paper fixes the fabric; drop %s\n", strings.Join(ignored, ", "))
			os.Exit(1)
		}
		cfg.Topo = topo.PaperDefault()
	} else {
		// NaN, ±Inf and rates past int64 bits per second would convert to a
		// meaningless LinkBps.
		if bps := *bpsF * 1e9; !(bps > 0 && bps < math.MaxInt64) {
			fmt.Fprintf(os.Stderr, "ucmpsim: -gbps %g must be positive, finite and below %.3g\n", *bpsF, math.MaxInt64/1e9)
			os.Exit(1)
		}
		cfg.Topo = topo.Config{
			NumToRs:       *torsF,
			Uplinks:       *uplinksF,
			HostsPerToR:   *hostsF,
			LinkBps:       int64(*bpsF * 1e9),
			PropDelay:     500 * sim.Nanosecond,
			SliceDuration: sim.Time(sliceF.Nanoseconds()),
			ReconfDelay:   sim.Time(reconfF.Nanoseconds()),
			MTU:           1500,
		}
	}

	// The static link failures script first, then the runtime ones; every
	// non-zero fraction goes through, so an invalid one is refused.
	cfg.Failures = failure.NewTimeline()
	addFailures := func(tor, link, sw float64, down, repair sim.Time) {
		if tor == 0 && link == 0 && sw == 0 {
			return
		}
		tl, err := harness.BuildFailureTimeline(cfg, tor, link, sw, down, repair)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ucmpsim:", err)
			os.Exit(1)
		}
		cfg.Failures.Merge(tl)
	}
	addFailures(0, *failF, 0, 0, -1)
	addFailures(*rtTorsF, *rtLinksF, *rtSwF, sim.Time(failAtF.Nanoseconds()), sim.Time(repairAtF.Nanoseconds()))

	if *flowsF != "" {
		fh, err := os.Open(*flowsF)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ucmpsim:", err)
			os.Exit(1)
		}
		flows, err := traceio.ReadFlows(fh)
		fh.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "ucmpsim:", err)
			os.Exit(1)
		}
		if len(flows) == 0 {
			// A nil Flows list means "generate the Poisson workload".
			fmt.Fprintf(os.Stderr, "ucmpsim: -flows %s holds no flows\n", *flowsF)
			os.Exit(1)
		}
		cfg.Flows = flows
	}

	start := time.Now()
	res, err := harness.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ucmpsim:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	if res.ResumeNote != "" {
		fmt.Fprintf(os.Stderr, "ucmpsim: checkpoint: %s\n", res.ResumeNote)
	}
	// A trace run uses neither -workload nor -load; its header names the trace.
	on := fmt.Sprintf("%s (%d ToRs, %d hosts, load %.0f%%)", *workloadF, cfg.Topo.NumToRs, cfg.Topo.NumHosts(), *loadF*100)
	if cfg.Flows != nil {
		on = fmt.Sprintf("trace %s of %d flows (%d ToRs, %d hosts)", *flowsF, len(cfg.Flows), cfg.Topo.NumToRs, cfg.Topo.NumHosts())
	}
	fmt.Printf("ucmpsim: %s + %s on %s\n", *routingF, *transportF, on)
	if res.PathSet.Groups > 0 {
		fmt.Println("path set:", res.PathSet)
	}
	fmt.Printf("flows: %d launched, %.1f%% completed  (wall %.1fs)\n",
		res.Launched, res.CompletionRate*100, elapsed.Seconds())
	fmt.Printf("bandwidth efficiency: %.3f   rerouted packets: %.2f%%   drops: %d\n",
		res.Efficiency, res.ReroutedFrac*100, res.Counters.DroppedPackets)
	fmt.Printf("recirculation causes: expired=%d late=%d queue-full=%d\n",
		res.Counters.ExpiredInCalendar, res.Counters.LateArrivals, res.Counters.CalendarFull)
	if rec := res.Recovery; rec.Total() > 0 || rec.FaultDrops > 0 {
		fmt.Printf("online recovery: same-length=%d shorter=%d longer=%d backup=%d failed=%d fault-drops=%d\n",
			rec.SameLength, rec.Shorter, rec.Longer, rec.Backup, rec.Failed, rec.FaultDrops)
		fmt.Printf("time to reroute: p50=%s p99=%s   histogram: %s\n",
			rec.WaitPercentile(0.50), rec.WaitPercentile(0.99), rec.WaitHistogram())
	}
	if len(res.Collector.Samples) == 0 {
		// A mean over no samples reads 0, which is not a measurement.
		fmt.Println("mean ToR-to-host util: n/a   mean ToR-to-ToR util: n/a (no sample before the horizon)")
	} else {
		fmt.Printf("mean ToR-to-host util: %.3f   mean ToR-to-ToR util: %.3f\n",
			res.Collector.MeanUtil(1, func(s netsim.Sample) float64 { return s.TorToHostUtil }),
			res.Collector.MeanUtil(1, func(s netsim.Sample) float64 { return s.TorToTorUtil }))
	}
	if *fctOutF != "" {
		if err := writeFCTs(*fctOutF, res); err != nil {
			fmt.Fprintln(os.Stderr, "ucmpsim:", err)
			os.Exit(1)
		}
		fmt.Printf("per-flow results written to %s\n", *fctOutF)
	}
	fmt.Println("\nFCT by flow size bin:")
	fmt.Printf("%-22s %-8s %-12s %-12s %-12s\n", "size bin", "flows", "avg FCT", "p50", "p99")
	for _, b := range res.Bins() {
		if b.Count == 0 {
			continue
		}
		fmt.Printf("[%9d,%9d) %-8d %-12s %-12s %-12s\n", b.Lo, b.Hi, b.Count, b.AvgFCT, b.P50FCT, b.P99FCT)
	}
}

// writeFCTs dumps the run's per-flow results to a CSV file.
func writeFCTs(path string, res *harness.Result) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	return traceio.WriteFCTs(fh, res.Flows)
}
