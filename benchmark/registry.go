package main

// The registry is the single list of what the benchmark runs and reports.
// BENCHMARK.json at the repository root repeats it for the driver;
// benchmark_test.go fails when the two disagree.

// workloadDef names one workload and records why it is in the set.
type workloadDef struct {
	Name string
	Why  string
}

// metricDef is one reported number. Bound is the share of the baseline
// median by which an end-to-end metric may worsen before -compare (and the
// driver) call it a regression; per-layer metrics carry no bound. Exact
// marks simulated statistics that repeat bit-for-bit at a fixed seed, which
// -compare checks for identity instead of against a bound.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
	Exact  bool
}

var workloads = []workloadDef{
	{"websearch108", "paper headline: 108x6x6 100G fabric, UCMP+DCTCP, web search at 40% load; event loop ~83%, PlanRoute ~12%, cold brute path-set build in set-up"},
	{"datamining108-rotor", "bypass: same fabric, VLB+rotor transport, data mining; no path set, tables or fabric cache, rotor VOQs instead of calendar queues"},
	{"offline324", "Table 2 row (324,12): NewFabric, brute BuildPathSet, CompileTable, Validate; core does >90% of the work and the simulator none"},
	{"warm512", "long-run mode: 512x8x2 symmetric fabric loaded from the fabric cache, UCMP+NDP, web search, three checkpoint writes per run"},
}

// End-to-end metrics. Every workload reports every one. Host time and
// simulated time never share a metric: all six are host-side costs.
// work_per_wall_s counts the workload's own unit of output per host second
// after set-up: delivered data packets for the packet workloads, compiled
// table rows for offline324.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "work_per_wall_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// setupFloorS is the absolute set-up difference below which -compare calls
// two set-up times the same regardless of their ratio: the smallest probes
// are a process start and a few milliseconds of work.
const setupFloorS = 0.05

// Per-layer metrics, named <package>.<metric>. A workload that does not
// enter a layer reports 0 for that layer's measurements and 0 for its
// equality gates (1 = checked and equal).
var perLayer = []metricDef{
	{Name: "topo.fabric_build_ms", Unit: "ms", Better: "lower"},

	{Name: "core.pathset_build_s", Unit: "s", Better: "lower"},
	{Name: "core.pathset_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "core.groups", Unit: "count", Better: "lower"},
	{Name: "core.symmetric", Unit: "count", Better: "higher"},
	{Name: "core.compute_row_us", Unit: "us", Better: "lower"},

	{Name: "routing.compile_table_ms", Unit: "ms", Better: "lower"},
	{Name: "routing.table_rows", Unit: "count", Better: "lower", Exact: true},
	{Name: "routing.table_kb", Unit: "KB", Better: "lower", Exact: true},
	{Name: "routing.plan_calls", Unit: "count", Better: "lower", Exact: true},
	{Name: "routing.plan_ns", Unit: "ns", Better: "lower"},
	{Name: "routing.plan_share", Unit: "ratio", Better: "lower"},
	{Name: "routing.plans_per_data_pkt", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "routing.replan_frac", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "routing.plan_fail", Unit: "count", Better: "lower", Exact: true},
	{Name: "routing.plan_micro_ns", Unit: "ns", Better: "lower"},

	{Name: "fabriccache.load_ms", Unit: "ms", Better: "lower"},
	{Name: "fabriccache.save_ms", Unit: "ms", Better: "lower"},
	{Name: "fabriccache.file_mb", Unit: "MB", Better: "lower"},
	{Name: "fabriccache.cold_build_s", Unit: "s", Better: "lower"},

	{Name: "sim.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.loop_s", Unit: "s", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.sched_micro_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.timer_micro_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.pending_high_water", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.cascades", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.dead_pops", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.sharded2_speedup", Unit: "ratio", Better: "higher"},

	{Name: "netsim.wire_ms", Unit: "ms", Better: "lower"},
	{Name: "netsim.data_pkts", Unit: "count", Better: "higher", Exact: true},
	{Name: "netsim.events_per_data_pkt", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "netsim.bw_efficiency", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "netsim.rerouted_frac", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "netsim.expired", Unit: "count", Better: "lower", Exact: true},
	{Name: "netsim.late", Unit: "count", Better: "lower", Exact: true},
	{Name: "netsim.calendar_full", Unit: "count", Better: "lower", Exact: true},
	{Name: "netsim.dropped", Unit: "count", Better: "lower", Exact: true},
	{Name: "netsim.trimmed", Unit: "count", Better: "lower", Exact: true},
	{Name: "netsim.ledger_ok", Unit: "count", Better: "higher"},

	{Name: "transport.launch_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.rtx_byte_frac", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "transport.unfinished_frac", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "transport.dctcp_micro_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "transport.ndp_micro_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "transport.rotor_micro_ns_per_pkt", Unit: "ns", Better: "lower"},

	{Name: "workload.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.flows", Unit: "count", Better: "higher", Exact: true},
	{Name: "metrics.finalize_ms", Unit: "ms", Better: "lower"},
	{Name: "metrics.samples", Unit: "count", Better: "higher", Exact: true},
	{Name: "metrics.fct_short_p99_us", Unit: "us", Better: "lower", Exact: true},

	{Name: "checkpoint.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.file_mb", Unit: "MB", Better: "lower"},
	{Name: "checkpoint.load_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.overhead_frac", Unit: "ratio", Better: "lower"},

	{Name: "harness.resume_s", Unit: "s", Better: "lower"},
	{Name: "harness.resume_equal", Unit: "count", Better: "higher"},
	{Name: "harness.warm_equal", Unit: "count", Better: "higher"},
	{Name: "harness.wiring_drift", Unit: "count", Better: "lower"},
	{Name: "harness.trace_overhead_frac", Unit: "ratio", Better: "lower"},

	{Name: "machine.canary_alu_ms", Unit: "ms", Better: "lower"},
	{Name: "machine.canary_mem_ms", Unit: "ms", Better: "lower"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
