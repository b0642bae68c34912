// Package harness wires fabric + schedule + router + transport + workload
// into runnable experiments, one per table and figure of the paper's
// evaluation (§7, §8, appendices). cmd/ucmpbench and the repository's
// bench_test.go are thin wrappers over this package.
package harness

import (
	"fmt"
	"math"

	"ucmp/internal/checkpoint"
	"ucmp/internal/failure"
	"ucmp/internal/metrics"
	"ucmp/internal/netsim"
	"ucmp/internal/routing"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
	"ucmp/internal/transport"
	"ucmp/internal/workload"
)

// RoutingKind names a routing scheme under test.
type RoutingKind string

const (
	UCMP   RoutingKind = "ucmp"
	VLB    RoutingKind = "vlb"
	KSP1   RoutingKind = "ksp1"
	KSP5   RoutingKind = "ksp5"
	Opera1 RoutingKind = "opera1"
	Opera5 RoutingKind = "opera5"
)

// ScheduleFor returns the schedule kind a routing scheme requires (§7.1:
// Opera uses its native staggered schedule; the rest use the fully
// reconfigurable one).
func ScheduleFor(r RoutingKind) string {
	if r == Opera1 || r == Opera5 {
		return "opera"
	}
	return "round-robin"
}

// SimConfig describes one packet-level simulation run.
type SimConfig struct {
	Topo      topo.Config
	Routing   RoutingKind // also picks the schedule (ScheduleFor)
	Transport transport.Kind
	Alpha     float64
	Relax     bool // UCMP latency relaxation (§4.3)

	// Workload selects the Poisson trace ("websearch"/"datamining");
	// ignored when Flows is set explicitly.
	Workload    string
	Load        float64
	MaxFlowSize int64 // clip sampled sizes (scaled runs); 0 = no clip
	Duration    sim.Time
	Flows       []*netsim.Flow

	Horizon     sim.Time // 0: Duration * 4
	SampleEvery sim.Time // 0: no sampling
	Seed        int64

	// AccurateFlowSize stamps buckets from the true flow size instead of
	// flow aging (the Fig 8 comparison).
	AccurateFlowSize bool

	// PinPolicy ablates the uniform-cost policy: "min-latency" pins every
	// UCMP decision to the globally minimum-latency path (bucket 0),
	// "fewest-hops" to the fewest-hop path. Empty = normal uniform cost.
	PinPolicy string

	// MaxParallel caps the tied parallel paths kept per group entry; 0
	// keeps the default (4). 1 ablates ECMP-style tie spreading.
	MaxParallel int

	// FabricCacheDir, when set, persists compiled UCMP fabrics as mmap-able
	// files in that directory (DESIGN.md §11) and serves later processes'
	// runs of the same fabric + parameters from them instead of rebuilding.
	// A run reads only the file's symmetric path set, decoded into its own
	// store; ToR 0's compiled table rides in the file as the switch-install
	// artifact (§6.2) and for Validate, and nothing in a simulation looks it
	// up. Within one process, reuse is the Runner's: it loads or builds each
	// path set once. Plans are byte-identical warm vs cold; a stale,
	// foreign, or corrupted file is rebuilt and overwritten. Ignored for
	// non-UCMP routing; a schedule with no rotation symmetry builds cold,
	// which Result.PathSet notes.
	FabricCacheDir string

	// Failures scripts runtime faults: ToRs, cables, and circuit switches
	// going down (and optionally back up) at fixed simulation times. The
	// script compiles to an immutable epoch schedule consulted by the
	// fabric and by UCMP's §5.3 online recovery, and is fully shardable
	// (DESIGN.md §4). Links failed from t=0 and never repaired are Fig
	// 12d's static failures (BuildFailureTimeline). The timeline is not
	// mutated and may be shared between configs.
	Failures *failure.Timeline

	// Shards > 1 opts into the conservative-PDES engine: one lookahead
	// domain per ToR, advanced by that many parallel workers. Negative
	// values are rejected; values above the ToR count are clamped to it
	// (domains cannot outnumber ToRs) with the clamp recorded in
	// Result.ShardNote. Configurations Shardable rejects fall back to the
	// serial engine with the rejection recorded in Result.ShardNote;
	// Result.Sharded and Result.Shards report which engine ran and how
	// wide. 0 or 1 selects the serial engine.
	Shards int

	// CheckpointDir, together with CheckpointEvery > 0, writes a full
	// simulation snapshot (DESIGN.md §11) at every multiple of
	// CheckpointEvery, one file per distinct configuration, overwritten in
	// place with the atomic temp+rename discipline. Checkpoint instants do
	// not perturb the run: a checkpointing run is bit-identical to a plain
	// one. Failed writes degrade to a Result.ResumeNote naming the first
	// error and how many writes failed; the run continues.
	// CheckpointEvery without CheckpointDir writes nothing, which
	// Result.ResumeNote says.
	CheckpointDir   string
	CheckpointEvery sim.Time

	// Resume, with CheckpointDir set, restores the configuration's
	// checkpoint before running and continues from its instant — the
	// combined run is bit-identical to an uninterrupted one. A missing,
	// corrupted, version-mismatched, or foreign-config checkpoint falls
	// back to a clean cold run, recorded in Result.ResumeNote.
	Resume bool
}

// Shardable reports whether a configuration can run on the sharded engine,
// or an error naming the first obstacle. UCMP latency relaxation consults
// fabric-wide backlog synchronously — a zero-lookahead cross-domain read the
// bulk-synchronous windows cannot order deterministically. Everything else
// shards, rotor-class traffic included: it reads peer state only through the
// slice-boundary board (DESIGN.md §10), which every harness network
// publishes. A board is race-free only when slices are at least one
// lookahead window long, so no boundary write shares an engine window with a
// read; that holds for every realistic fabric (microsecond slices vs
// sub-microsecond lookahead) and is checked here, for every configuration,
// as netsim checks it when the board is built.
func Shardable(cfg SimConfig) error {
	if cfg.Relax {
		return fmt.Errorf("harness: UCMP latency relaxation is not shardable")
	}
	if cfg.Topo.UplinkRate() <= 0 {
		return nil // the fabric build refuses it
	}
	if la := cfg.Topo.PropDelay + cfg.Topo.UplinkSerialization(netsim.HeaderBytes); cfg.Topo.SliceDuration < la {
		return fmt.Errorf("harness: slice duration %v below the %v lookahead; the slice-boundary exchange cannot shard",
			cfg.Topo.SliceDuration, la)
	}
	return nil
}

// ScaledConfig is the default fast configuration for one run.
func ScaledConfig(r RoutingKind, t transport.Kind, wl string) SimConfig {
	return SimConfig{
		Topo:        topo.Scaled(),
		Routing:     r,
		Transport:   t,
		Alpha:       0.5,
		Workload:    wl,
		Load:        0.4,
		MaxFlowSize: 64 << 20,
		Duration:    4 * sim.Millisecond,
		Seed:        1,
	}
}

// Result aggregates a run's measurements.
type Result struct {
	Config         SimConfig
	Collector      *metrics.Collector
	Counters       netsim.Counters
	Efficiency     float64
	ReroutedFrac   float64
	CompletionRate float64
	Launched       int
	// Events is the number of discrete events the engine executed for this
	// run (throughput denominator for events/sec reporting).
	Events uint64
	// EventKinds breaks Events down by what the event did, indexed by the
	// checkpoint.Kind* registry (slot 0: untagged); summed over domains on a
	// sharded run, and over the whole run on a resumed one.
	EventKinds sim.EventKinds
	// Sched is the scheduler's internals over the run (pending high-water,
	// wheel cascades, timer cancels): the domains' totals, and their largest
	// high-water mark, on a sharded run.
	Sched sim.SchedStats
	// ShardStats counts the sharded engine's windows and mailbox traffic;
	// zero for a serial run.
	ShardStats sim.ShardStats
	// Mem is what the run's packet-path memory was made of: the Packets the
	// pools grew to, the most packets ever parked in RotorLB VOQs, the VOQ
	// chunks allocated to hold their runs, and the calendar queues that ever held a
	// packet at once and were created for it — enough to explain a run's RSS
	// without a profiler. Simulated behaviour does not depend on it and no
	// fingerprint includes it; a resumed run counts from the resume.
	Mem netsim.MemStats
	// Sharded reports whether the run executed on the conservative-PDES
	// engine (false when cfg.Shards was set but Shardable rejected the
	// configuration).
	Sharded bool
	// Shards is the effective worker count: the engine's worker count for a
	// sharded run (after clamping), 1 for a serial run.
	Shards int
	// ShardNote records shard-count adjustments: a clamp to the ToR count,
	// or why the run fell back to the serial engine; empty when the
	// requested count was used as-is.
	ShardNote string
	// JainCumulative is the whole-run Jain fairness over per-uplink-port
	// bytes (Fig 15).
	JainCumulative float64
	// Flows are the run's flows (MPTCP subflows included), for trace
	// export.
	Flows []*netsim.Flow
	// Recovery is the §5.3 online-recovery summary (all-zero when no
	// failures were configured).
	Recovery metrics.RecoveryStats
	// PathSet describes the path set behind the run (UCMP's, or the KSP /
	// Opera baseline's) — cold-built, or served from the fabric cache file
	// or the Runner's store; how long that took; how big the store is. Zero
	// for VLB.
	PathSet PathSetInfo
	// ResumeNote records checkpoint/resume outcomes: the restored instant
	// on a successful resume, why a requested resume fell back to a cold
	// run, why checkpoint writing was disabled, how many checkpoint writes
	// failed and the first error, or that a sweep's book was not written.
	// Empty for plain runs.
	ResumeNote string
	// TrialPanic, set by RunTrials, records a panic (message and stack)
	// that aborted this trial; the zero-value Result fields accompany it.
	TrialPanic string
	// SweepLine, set by RunTrials when a resumed sweep finds this trial
	// already completed in the sweep book, is the trial's recorded summary
	// line. The simulation was not re-run: the other fields are zero apart
	// from Config, Collector, and ResumeNote.
	SweepLine string
}

// Bins groups the run's FCTs with the default flow-size bins.
func (r *Result) Bins() []metrics.BinStat { return r.Collector.BySize(metrics.DefaultBins()) }

// simState is one fully wired simulation: engines, network, transport
// stack, collector, and workload, ready to run (cold) or to restore a
// checkpoint into (resume).
type simState struct {
	cfg       SimConfig
	eng       *sim.Engine
	sh        *sim.ShardedEngine
	net       *netsim.Network
	stack     *transport.Stack
	col       *metrics.Collector
	flows     []*netsim.Flow
	sharded   bool
	shards    int
	shardNote string
	pathSet   PathSetInfo
	horizon   sim.Time
	ckpt      *checkpoint.Writer // writeCheckpoint's, reused across checkpoints
	ckptErr   error              // the first failed checkpoint write
	ckptFails int                // how many checkpoint writes failed
}

// Run executes the simulation: a plain run that memoizes nothing and builds
// its own path set.
func Run(cfg SimConfig) (*Result, error) { return (*Runner)(nil).run(cfg) }

// run executes one simulation, its path set taken from r's store.
func (r *Runner) run(cfg SimConfig) (*Result, error) {
	if err := validateWorkload(cfg); err != nil {
		return nil, err
	}
	var st *simState
	var resumeNote string
	resumed := false
	if cfg.Resume {
		if cfg.CheckpointDir == "" {
			resumeNote = "cold run: Resume set without CheckpointDir"
		} else {
			rst, err := r.buildSim(cfg, true)
			if err != nil {
				return nil, err
			}
			at, rerr := rst.restoreCheckpoint()
			if rerr != nil {
				// The half-restored network is undefined; discard it and
				// fall through to a clean cold build.
				resumeNote = fmt.Sprintf("cold run: %v", rerr)
			} else {
				st = rst
				resumed = true
				resumeNote = fmt.Sprintf("resumed at %v", at)
			}
		}
	}
	if st == nil {
		var err error
		st, err = r.buildSim(cfg, false)
		if err != nil {
			return nil, err
		}
	}
	res := st.run(resumed)
	res.ResumeNote = joinNote(resumeNote, res.ResumeNote)
	return res, nil
}

// joinNote appends note to a "; "-separated list of notes.
func joinNote(notes, note string) string {
	if notes == "" {
		return note
	}
	if note == "" {
		return notes
	}
	return notes + "; " + note
}

// validateWorkload checks the run's numeric knobs before anything is built.
// A negative horizon, sampling period or checkpoint period would silently
// run no events, take no samples or write no checkpoint, α shapes the path
// set whatever the workload source, and a UCMP-only knob (Relax, PinPolicy,
// AccurateFlowSize, MaxParallel) on another routing would be ignored. An
// explicit flow list is checked flow by flow (validateFlows). The rest is
// what the Poisson generator is fed, when it is the one that runs: a
// negative load walks the arrival clock backwards and never returns, a zero
// load, duration or host count gives an empty FCT table that looks like a
// result, and a negative size clip would run unclipped. Horizon is
// deliberately not tied to Duration — a 1 ns horizon is how set-up is timed
// — but a scripted failure must strike before it: one at or after the
// horizon never happens, and the run would read as one without failures.
func validateWorkload(cfg SimConfig) error {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	if cfg.Horizon < 0 {
		return fmt.Errorf("harness: Horizon=%v must not be negative", cfg.Horizon)
	}
	if e := lateFailure(cfg.Failures, horizonOf(cfg)); e != nil {
		return fmt.Errorf("harness: failure at %v is not before the horizon %v", e.At, horizonOf(cfg))
	}
	switch {
	case cfg.SampleEvery < 0:
		return fmt.Errorf("harness: SampleEvery=%v must not be negative", cfg.SampleEvery)
	case cfg.CheckpointEvery < 0:
		return fmt.Errorf("harness: CheckpointEvery=%v must not be negative (0 = off)", cfg.CheckpointEvery)
	case !finite(cfg.Alpha) || cfg.Alpha < 0:
		return fmt.Errorf("harness: Alpha=%g must be non-negative and finite", cfg.Alpha)
	case cfg.Routing != UCMP && cfg.Relax:
		return fmt.Errorf("harness: Relax is UCMP-only; Routing=%s would ignore it", cfg.Routing)
	case cfg.Routing != UCMP && cfg.PinPolicy != "":
		return fmt.Errorf("harness: PinPolicy=%q is UCMP-only; Routing=%s would ignore it", cfg.PinPolicy, cfg.Routing)
	case cfg.Routing != UCMP && cfg.AccurateFlowSize:
		return fmt.Errorf("harness: AccurateFlowSize is UCMP-only; Routing=%s would ignore it", cfg.Routing)
	case cfg.Routing != UCMP && cfg.MaxParallel != 0:
		return fmt.Errorf("harness: MaxParallel=%d is UCMP-only; Routing=%s would ignore it", cfg.MaxParallel, cfg.Routing)
	case cfg.Flows != nil:
		return validateFlows(cfg.Flows, cfg.Topo.NumHosts())
	case !finite(cfg.Load) || cfg.Load <= 0:
		return fmt.Errorf("harness: Load=%g must be positive and finite", cfg.Load)
	case cfg.Duration <= 0:
		return fmt.Errorf("harness: Duration=%v must be positive", cfg.Duration)
	case cfg.Topo.HostsPerToR < 1:
		return fmt.Errorf("harness: HostsPerToR=%d must be at least 1", cfg.Topo.HostsPerToR)
	case cfg.MaxFlowSize < 0:
		return fmt.Errorf("harness: MaxFlowSize=%d must not be negative (0 = no clip)", cfg.MaxFlowSize)
	}
	return nil
}

// lateFailure returns the first event of tl that takes an element down at
// or after the horizon, or nil. A repair may fall after it.
func lateFailure(tl *failure.Timeline, horizon sim.Time) *failure.Event {
	for _, e := range tl.Events() {
		if e.At >= horizon && (e.Kind == failure.EvTorDown || e.Kind == failure.EvLinkDown || e.Kind == failure.EvSwitchDown) {
			return &e
		}
	}
	return nil
}

// validateFlows checks an explicit flow list, which can come from outside
// (ucmpsim -flows), naming the first bad flow by id. A host outside the
// fabric or a repeated id panics deep in the build, a flow to its own host
// never crosses the fabric, and a flow of no bytes or a negative arrival is
// not a flow a trace can mean.
func validateFlows(flows []*netsim.Flow, hosts int) error {
	ids := make(map[int64]bool, len(flows))
	for _, f := range flows {
		switch {
		case f.SrcHost < 0 || f.SrcHost >= hosts:
			return fmt.Errorf("harness: flow %d: src_host %d outside [0,%d)", f.ID, f.SrcHost, hosts)
		case f.DstHost < 0 || f.DstHost >= hosts:
			return fmt.Errorf("harness: flow %d: dst_host %d outside [0,%d)", f.ID, f.DstHost, hosts)
		case f.SrcHost == f.DstHost:
			return fmt.Errorf("harness: flow %d: src_host and dst_host are both %d", f.ID, f.SrcHost)
		case f.Size <= 0:
			return fmt.Errorf("harness: flow %d: size %d must be positive", f.ID, f.Size)
		case f.Arrival < 0:
			return fmt.Errorf("harness: flow %d: arrival %d ns must not be negative", f.ID, int64(f.Arrival))
		case ids[f.ID]:
			return fmt.Errorf("harness: flow %d: duplicate id", f.ID)
		}
		ids[f.ID] = true
	}
	return nil
}

// buildSim wires a simulation on the path set r serves. With forRestore
// set, flows are attached but not scheduled and the slice-boundary clock is
// not armed: every pending event then comes from the checkpoint replay in
// restoreCheckpoint.
func (r *Runner) buildSim(cfg SimConfig, forRestore bool) (*simState, error) {
	if !transport.Valid(cfg.Transport) {
		return nil, fmt.Errorf("harness: unknown transport %q (valid: %v)", cfg.Transport, transport.Kinds)
	}
	fab, err := newFabricFor(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("harness: Shards=%d is negative", cfg.Shards)
	}
	shards := cfg.Shards
	var shardNote string
	if shards > fab.NumToRs {
		shardNote = fmt.Sprintf("Shards=%d clamped to the %d-ToR domain count", cfg.Shards, fab.NumToRs)
		shards = fab.NumToRs
	}
	sharded := false
	if shards > 1 {
		if err := Shardable(cfg); err != nil {
			shardNote = fmt.Sprintf("serial fallback: %v", err)
		} else {
			sharded = true
		}
	}
	var eng *sim.Engine
	var sh *sim.ShardedEngine
	if sharded {
		sh = sim.NewShardedEngine(fab.NumToRs, shards, netsim.ShardLookahead(fab))
	} else {
		eng = sim.NewEngine()
		shards = 1
	}

	var router netsim.Router
	var ucmpRouter *routing.UCMP
	var pathSet PathSetInfo
	switch cfg.Routing {
	case VLB:
		router = routing.NewVLB(fab)
	case KSP1, KSP5, Opera1, Opera5:
		p := r.pathSet(fab, cfg)
		router, pathSet = p.ksp, p.info
	case UCMP:
		p := r.pathSet(fab, cfg)
		ucmpRouter, pathSet = routing.NewUCMP(p.ps), p.info
		ucmpRouter.Relax = cfg.Relax
		switch cfg.PinPolicy {
		case "":
		case "min-latency":
			ucmpRouter.ForceBucket = 0
		case "fewest-hops":
			ucmpRouter.ForceBucket = ucmpRouter.Ager.NumBuckets() - 1
		default:
			return nil, fmt.Errorf("harness: unknown pin policy %q", cfg.PinPolicy)
		}
		router = ucmpRouter
	default:
		return nil, fmt.Errorf("harness: unknown routing %q", cfg.Routing)
	}

	qs := transport.QueueSpec(cfg.Transport)
	var net *netsim.Network
	if sharded {
		net = netsim.NewSharded(sh, fab, router, qs, qs, netsim.DefaultRotor())
	} else {
		net = netsim.New(eng, fab, router, qs, qs, netsim.DefaultRotor())
	}

	if ucmpRouter != nil {
		if cfg.AccurateFlowSize {
			ager := ucmpRouter.Ager
			net.Stamper = func(p *netsim.Packet) {
				if p.Flow != nil && p.Type == netsim.Data {
					p.Bucket = ager.Bucket(p.Flow.Size)
				}
			}
		} else {
			net.Stamper = ucmpRouter.StampBucket
		}
	}

	// No faults configured is the zero-cost default: the fabric never
	// consults a schedule.
	if !cfg.Failures.Empty() {
		fsched := cfg.Failures.Compile(fab)
		net.Faults = fsched
		if ucmpRouter != nil {
			ucmpRouter.Health = fsched
		}
	}

	if !forRestore {
		net.Start()
	}

	flows := cfg.Flows
	if flows == nil {
		if flows, err = poissonFlows(cfg); err != nil {
			return nil, err
		}
	}

	col := &metrics.Collector{}
	col.Hook(net)
	col.CountLaunched(len(flows))

	stack := transport.NewStack(net, cfg.Transport)
	for _, f := range flows {
		if forRestore {
			stack.Attach(f)
		} else {
			stack.Launch(f)
		}
	}

	return &simState{
		cfg: cfg, eng: eng, sh: sh, net: net, stack: stack, col: col,
		flows: flows, sharded: sharded, shards: shards, shardNote: shardNote, pathSet: pathSet,
		horizon: horizonOf(cfg),
	}, nil
}

// horizonOf resolves the run's horizon: Horizon, else 4·Duration, else 20 ms.
func horizonOf(cfg SimConfig) sim.Time {
	switch {
	case cfg.Horizon != 0:
		return cfg.Horizon
	case cfg.Duration != 0:
		return 4 * cfg.Duration
	}
	return 20 * sim.Millisecond
}

// run executes the wired simulation to its horizon — writing checkpoints
// along the way when configured — and aggregates the result. resumed tells
// it the sampling chains were restored rather than needing a cold arm.
func (st *simState) run(resumed bool) *Result {
	cfg := st.cfg
	ckptKey, ckptNote := "", ""
	switch {
	case cfg.CheckpointEvery <= 0:
	case cfg.CheckpointDir == "":
		ckptNote = "checkpointing off: CheckpointEvery set without CheckpointDir"
	case cfg.Transport == transport.MPTCP:
		ckptNote = "checkpointing disabled: mptcp transport is not serializable"
	default:
		ckptKey = configKey(cfg, st.flows)
	}
	res := &Result{
		Config:     cfg,
		Collector:  st.col,
		Launched:   len(st.flows),
		Sharded:    st.sharded,
		Shards:     st.shards,
		ShardNote:  st.shardNote,
		PathSet:    st.pathSet,
		ResumeNote: ckptNote,
	}
	if st.sharded {
		if cfg.SampleEvery > 0 && !resumed {
			st.col.StartSamplingSharded(st.net, st.sh, cfg.SampleEvery, st.horizon)
		}
		if ckptKey != "" {
			st.armCheckpoints(ckptKey)
		}
		st.sh.Run(st.horizon)
		st.net.FinalizeSharded()
		res.Events, res.EventKinds = st.sh.Processed(), st.sh.EventKinds()
		res.Sched, res.ShardStats = st.sh.SchedStats(), st.sh.Stats()
	} else {
		if cfg.SampleEvery > 0 && !resumed {
			st.col.StartSampling(st.net, cfg.SampleEvery, st.horizon)
		}
		if ckptKey != "" {
			// Segmented run: stop at each checkpoint instant with the event
			// queue intact and snapshot. No checkpoint event ever enters the
			// engine, so the run is bit-identical to an unsegmented one.
			every := cfg.CheckpointEvery
			for t := (st.eng.Now()/every + 1) * every; t < st.horizon; t += every {
				st.eng.Run(t)
				st.writeCheckpoint(ckptKey)
			}
		}
		st.eng.Run(st.horizon)
		res.Events, res.EventKinds = st.eng.Processed(), st.eng.EventKinds()
		res.Sched = st.eng.SchedStats()
	}
	if st.ckptFails > 0 {
		res.ResumeNote = fmt.Sprintf("%d checkpoint writes failed, the first: %v", st.ckptFails, st.ckptErr)
	}
	res.Counters = st.net.Counters
	res.Efficiency = st.net.BandwidthEfficiency()
	res.ReroutedFrac = st.net.ReroutedFraction()
	res.CompletionRate = st.col.CompletionRate()
	res.Mem = st.net.MemStats()
	res.JainCumulative = st.net.JainCumulative()
	res.Flows = st.net.Flows()
	res.Recovery = metrics.Recovery(st.net.Counters)
	return res
}

// newFabricFor builds cfg's fabric on the schedule its routing requires.
func newFabricFor(cfg SimConfig) (*topo.Fabric, error) {
	return topo.NewFabric(cfg.Topo, ScheduleFor(cfg.Routing), cfg.Seed)
}

// poissonFlows generates the Poisson workload cfg names, the flows a run
// without an explicit Flows list launches. A window too short for the load to
// draw one flow is refused: the run would report an empty FCT table as 100%
// completed.
func poissonFlows(cfg SimConfig) ([]*netsim.Flow, error) {
	var dist *workload.Dist
	switch cfg.Workload {
	case "websearch":
		dist = workload.WebSearch()
	case "datamining":
		dist = workload.DataMining()
	default:
		return nil, fmt.Errorf("harness: unknown workload %q", cfg.Workload)
	}
	flows := workload.Generate(workload.PoissonConfig{
		Dist:        dist,
		NumHosts:    cfg.Topo.NumHosts(),
		LinkBps:     cfg.Topo.LinkBps,
		Load:        cfg.Load,
		Duration:    cfg.Duration,
		Seed:        cfg.Seed,
		HostsPerToR: cfg.Topo.HostsPerToR,
		MaxFlowSize: cfg.MaxFlowSize,
	})
	if len(flows) == 0 {
		return nil, fmt.Errorf("harness: Workload=%s Duration=%v Load=%g generated no flow", cfg.Workload, cfg.Duration, cfg.Load)
	}
	return flows, nil
}
