package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ucmp/internal/checkpoint"
	"ucmp/internal/core"
	"ucmp/internal/fabriccache"
	"ucmp/internal/harness"
	"ucmp/internal/metrics"
	"ucmp/internal/netsim"
	"ucmp/internal/routing"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
	"ucmp/internal/transport"
	"ucmp/internal/workload"
)

// span is one timed call into a layer's public function, recorded from
// outside the layer. Parent is the index of the span that caused it, -1 for
// the root. Spans stay in memory until the traced run ends.
type span struct {
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	Parent  int     `json:"parent"`
}

type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices of the spans fn is currently running inside
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do records fn as a span caused by the innermost span still open and
// returns its duration.
func (t *tracer) do(name string, fn func()) time.Duration {
	id, parent := len(t.spans), -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent})
	t.open = append(t.open, id)
	start := time.Now()
	fn()
	end := time.Now()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].StartUs = float64(start.Sub(t.t0).Nanoseconds()) / 1e3
	t.spans[id].EndUs = float64(end.Sub(t.t0).Nanoseconds()) / 1e3
	return end.Sub(start)
}

// countingRouter is the routing layer's boundary: it counts and times every
// PlanRoute the network asks for. A replan is any plan that is not a
// packet's first one at its source ToR.
type countingRouter struct {
	netsim.Router
	calls, replans, fails int64
	busy                  time.Duration
}

func (c *countingRouter) PlanRoute(p *netsim.Packet, tor int, now sim.Time, fromAbs int64, buf []netsim.PlannedHop) ([]netsim.PlannedHop, bool) {
	t0 := time.Now()
	route, ok := c.Router.PlanRoute(p, tor, now, fromAbs, buf)
	c.busy += time.Since(t0)
	c.calls++
	if tor != p.SrcToR || p.Rerouted > 0 {
		c.replans++
	}
	if !ok {
		c.fails++
	}
	return route, ok
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func allocMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc) / 1e6
}

func fileMB(path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(st.Size()) / 1e6
}

// traceChild is the traced run. It wires the workload itself from the
// layers' public functions, the way harness.Run does, with a span around
// each call, then times each layer alone in microbenchmarks. Its result
// carries the same fingerprint as the untraced run; the parent compares the
// two (harness.wiring_drift).
func traceChild(a childArgs, s spec) (childResult, error) {
	tr := newTracer()
	layer := map[string]float64{}
	var res childResult
	var err error
	tr.do("benchmark.trace", func() {
		if s.Offline {
			res, err = traceOffline(tr, s, a, layer)
		} else {
			res, err = tracePacket(tr, s, a, layer)
		}
	})
	if err != nil {
		return res, err
	}
	res.Layer = layer
	if a.OutDir != "" {
		err = writeJSON(filepath.Join(a.OutDir, "trace-"+a.Workload+".json"), map[string]any{
			"workload": a.Workload, "scale": a.Scale, "seed": a.Seed,
			"fingerprint": res.Fingerprint,
			"layer":       layer, "spans": tr.spans,
		})
	}
	return res, err
}

func traceOffline(tr *tracer, s spec, a childArgs, layer map[string]float64) (childResult, error) {
	var fab *topo.Fabric
	var err error
	d := tr.do("topo.NewFabric", func() { fab, err = topo.NewFabric(s.Topo, "round-robin", s.Seed) })
	if err != nil {
		return childResult{}, err
	}
	layer["topo.fabric_build_ms"] = ms(d)
	ps := tracePathSet(tr, fab, layer)
	table := traceCompile(tr, ps, layer)
	tr.do("routing.CompiledTable.Validate", func() { err = table.Validate(ps) })
	if err != nil {
		return childResult{}, fmt.Errorf("compiled table invalid: %w", err)
	}
	microLayers(tr, a.Scale, fab, routing.NewUCMP(ps), layer)
	return offlineResult(table), nil
}

func tracePathSet(tr *tracer, fab *topo.Fabric, layer map[string]float64) *core.PathSet {
	var ps *core.PathSet
	before := allocMB()
	d := tr.do("core.BuildPathSetWith", func() { ps = core.BuildPathSetWith(fab, 0.5, 0) })
	layer["core.pathset_build_s"] = d.Seconds()
	layer["core.pathset_alloc_mb"] = allocMB() - before
	pathSetShape(ps, layer)
	return ps
}

func pathSetShape(ps *core.PathSet, layer map[string]float64) {
	n, slices := ps.F.NumToRs, ps.F.Sched.S
	layer["core.groups"] = float64(slices * n * (n - 1))
	if ps.Symmetric() {
		layer["core.symmetric"] = 1
		rows, _ := ps.CanonStats()
		layer["core.groups"] = float64(rows)
	}
}

func traceCompile(tr *tracer, ps *core.PathSet, layer map[string]float64) *routing.CompiledTable {
	var table *routing.CompiledTable
	d := tr.do("routing.CompileTable", func() { table = routing.CompileTable(ps, core.NewFlowAger(ps), 0) })
	layer["routing.compile_table_ms"] = ms(d)
	layer["routing.table_rows"] = float64(table.NumRows())
	layer["routing.table_kb"] = float64(table.FootprintBytes()) / 1e3
	return table
}

// tracePacket repeats harness.Run's wiring for the serial engine: fabric,
// path set (built, or loaded from the fabric cache), router, network,
// flows, transport, then the event loop in 40 equal simulated-time segments
// with a checkpoint write wherever the configuration asks for one.
func tracePacket(tr *tracer, s spec, a childArgs, layer map[string]float64) (childResult, error) {
	cfg := s.Sim
	var fab *topo.Fabric
	var err error
	d := tr.do("topo.NewFabric", func() { fab, err = topo.NewFabric(cfg.Topo, harness.ScheduleFor(cfg.Routing), cfg.Seed) })
	if err != nil {
		return childResult{}, err
	}
	layer["topo.fabric_build_ms"] = ms(d)

	var router netsim.Router
	var ucmp *routing.UCMP
	var ps *core.PathSet
	switch {
	case cfg.Routing == harness.VLB:
		tr.do("routing.NewVLB", func() { router = routing.NewVLB(fab) })
	case s.Warm:
		if ps, err = traceWarm(tr, fab, cfg, layer); err != nil {
			return childResult{}, err
		}
	default:
		ps = tracePathSet(tr, fab, layer)
	}
	if ps != nil {
		tr.do("routing.NewUCMP", func() { ucmp = routing.NewUCMP(ps) })
		router = ucmp
	}
	counted := &countingRouter{Router: router}

	eng := sim.NewEngine()
	var net *netsim.Network
	d = tr.do("netsim.New+Start", func() {
		qs := transport.QueueSpec(cfg.Transport)
		net = netsim.New(eng, fab, counted, qs, qs, netsim.DefaultRotor())
		if ucmp != nil {
			net.Stamper = ucmp.StampBucket
		}
		net.Start()
	})
	layer["netsim.wire_ms"] = ms(d)

	var flows []*netsim.Flow
	d = tr.do("workload.Generate", func() {
		dist := workload.WebSearch()
		if cfg.Workload == "datamining" {
			dist = workload.DataMining()
		}
		flows = workload.Generate(workload.PoissonConfig{
			Dist: dist, NumHosts: cfg.Topo.NumHosts(), LinkBps: cfg.Topo.LinkBps,
			Load: cfg.Load, Duration: cfg.Duration, Seed: cfg.Seed,
			HostsPerToR: cfg.Topo.HostsPerToR, MaxFlowSize: cfg.MaxFlowSize,
		})
	})
	layer["workload.generate_ms"] = ms(d)
	layer["workload.flows"] = float64(len(flows))

	col := &metrics.Collector{}
	col.Hook(net)
	col.CountLaunched(len(flows))
	var stack *transport.Stack
	d = tr.do("transport.NewStack+Launch", func() {
		stack = transport.NewStack(net, cfg.Transport)
		for _, f := range flows {
			stack.Launch(f)
		}
	})
	layer["transport.launch_ms"] = ms(d)
	col.StartSampling(net, cfg.SampleEvery, cfg.Horizon)

	ckptPath := filepath.Join(a.CkptDir, "traced.ucmpckp")
	var snapshots int
	var snapshotTime time.Duration
	loopTime := tr.do("sim.Engine.Run", func() {
		for t := s.Segment; t <= cfg.Horizon; t += s.Segment {
			tr.do("sim.Engine.Run.segment", func() { eng.Run(t) })
			if cfg.CheckpointEvery > 0 && t%cfg.CheckpointEvery == 0 && t < cfg.Horizon {
				d := tr.do("checkpoint.Writer.Save", func() { err = snapshot(ckptPath, net, stack, col) })
				snapshots++
				snapshotTime += d
				if err != nil {
					return
				}
			}
		}
	})
	if err != nil {
		return childResult{}, fmt.Errorf("checkpoint write: %w", err)
	}

	var bins []metrics.BinStat
	d = tr.do("metrics.Collector.BySize", func() { bins = col.BySize(metrics.DefaultBins()) })
	layer["metrics.finalize_ms"] = ms(d)
	layer["metrics.samples"] = float64(len(col.Samples))
	finished := 0
	for _, b := range bins {
		finished += b.Count
	}

	c := net.Counters
	res := summarize(net.Flows(), c, cfg.Topo.LinkBps)
	res.Events = eng.Processed()
	res.Efficiency = net.BandwidthEfficiency()
	if c.DataDelivered == 0 {
		return res, fmt.Errorf("no data packet was delivered")
	}
	if finished != res.Flows-res.Unfinished {
		return res, fmt.Errorf("collector binned %d flows, %d finished", finished, res.Flows-res.Unfinished)
	}
	// Packets inside a scheduled delivery event are on a wire, where
	// InFlightData cannot see them; the run stops at a horizon, not at
	// quiescence, so the ledger may be short by what the wires can hold and
	// by nothing more, and never over.
	perLink := 2 + int64(cfg.Topo.PropDelay/cfg.Topo.SerializationDelay(cfg.Topo.MTU))
	wires := int64(2*cfg.Topo.NumHosts()+cfg.Topo.NumToRs*cfg.Topo.Uplinks) * perLink
	onWire := c.DataInjected - (c.DataDelivered + c.TrimmedDelivered + c.DataDropped + net.InFlightData())
	if onWire < 0 || onWire > wires {
		return res, fmt.Errorf("packet ledger: injected %d, %d unaccounted for, wires hold at most %d", c.DataInjected, onWire, wires)
	}
	layer["netsim.ledger_ok"] = 1

	simTime := loopTime - snapshotTime
	layer["sim.events"] = float64(res.Events)
	layer["sim.loop_s"] = simTime.Seconds()
	layer["sim.ns_per_event"] = float64(simTime.Nanoseconds()) / float64(res.Events)
	st := eng.SchedStats()
	layer["sim.pending_high_water"] = float64(st.PendingHighWater)
	layer["sim.cascades"] = float64(st.Cascades)
	layer["sim.dead_pops"] = float64(st.DeadPops)

	pkts := float64(c.DataDelivered)
	layer["netsim.data_pkts"] = pkts
	layer["netsim.events_per_data_pkt"] = float64(res.Events) / pkts
	layer["netsim.bw_efficiency"] = res.Efficiency
	layer["netsim.rerouted_frac"] = net.ReroutedFraction()
	layer["netsim.expired"] = float64(c.ExpiredInCalendar)
	layer["netsim.late"] = float64(c.LateArrivals)
	layer["netsim.calendar_full"] = float64(c.CalendarFull)
	layer["netsim.dropped"] = float64(c.DataDropped)
	layer["netsim.trimmed"] = float64(c.TrimmedDelivered)

	layer["routing.plan_calls"] = float64(counted.calls)
	layer["routing.plan_fail"] = float64(counted.fails)
	layer["routing.plans_per_data_pkt"] = float64(counted.calls) / pkts
	if counted.calls > 0 {
		layer["routing.plan_ns"] = float64(counted.busy.Nanoseconds()) / float64(counted.calls)
		layer["routing.replan_frac"] = float64(counted.replans) / float64(counted.calls)
	}
	layer["routing.plan_share"] = counted.busy.Seconds() / simTime.Seconds()

	layer["transport.rtx_byte_frac"] = float64(c.DataBytesSent-c.DataBytesDelivered) / float64(c.DataBytesSent)
	layer["transport.unfinished_frac"] = float64(res.Unfinished) / float64(res.Flows)
	layer["metrics.fct_short_p99_us"] = res.ShortP99Us

	if snapshots > 0 {
		layer["checkpoint.snapshot_ms"] = ms(snapshotTime) / float64(snapshots)
		layer["checkpoint.file_mb"] = fileMB(ckptPath)
		layer["checkpoint.overhead_frac"] = snapshotTime.Seconds() / simTime.Seconds()
		d = tr.do("checkpoint.Load", func() { _, err = checkpoint.Load(ckptPath) })
		if err != nil {
			return res, fmt.Errorf("checkpoint reload: %w", err)
		}
		layer["checkpoint.load_ms"] = ms(d)
	}

	if ps != nil && !s.Warm {
		traceCompile(tr, ps, layer)
	}
	microLayers(tr, a.Scale, fab, router, layer)
	return res, nil
}

// traceWarm measures the fabric cache both ways in scratch space — a cold
// symmetric build, table compile and Save, then a Load of that file — and
// returns the loaded path set for the traced run, as a warm harness.Run
// would use it.
func traceWarm(tr *tracer, fab *topo.Fabric, cfg harness.SimConfig, layer map[string]float64) (*core.PathSet, error) {
	params := fabriccache.Params{Alpha: cfg.Alpha}
	path := fabriccache.FileName(filepath.Join(cfg.FabricCacheDir, "traced"), fab, params)
	var err error
	cold := tr.do("fabriccache.cold_build", func() {
		ps := tracePathSet(tr, fab, layer)
		table := traceCompile(tr, ps, layer)
		d := tr.do("fabriccache.Save", func() { err = fabriccache.Save(path, ps, table) })
		layer["fabriccache.save_ms"] = ms(d)
	})
	if err != nil {
		return nil, fmt.Errorf("fabric cache save: %w", err)
	}
	layer["fabriccache.cold_build_s"] = cold.Seconds() - layer["fabriccache.save_ms"]/1e3
	layer["fabriccache.file_mb"] = fileMB(path)
	var wf *fabriccache.Fabric
	d := tr.do("fabriccache.Load", func() { wf, err = fabriccache.Load(path, fab, params, fabriccache.Options{}) })
	if err != nil {
		return nil, fmt.Errorf("fabric cache load: %w", err)
	}
	layer["fabriccache.load_ms"] = ms(d)
	return wf.PS, nil
}

// snapshot writes the full simulation state the way harness does: network,
// transport and collector sections in one checkpoint file.
func snapshot(path string, net *netsim.Network, stack *transport.Stack, col *metrics.Collector) error {
	w := checkpoint.NewWriter()
	w.Section("config").Str("benchmark traced run")
	if err := net.Snapshot(w); err != nil {
		return err
	}
	if err := stack.Snapshot(w); err != nil {
		return err
	}
	col.Snapshot(w)
	return w.Save(path)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
