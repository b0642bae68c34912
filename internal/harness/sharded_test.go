package harness

import (
	"strings"
	"testing"

	"ucmp/internal/failure"
	"ucmp/internal/netsim"
	"ucmp/internal/routing"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
	"ucmp/internal/transport"
)

// requireShards2Equal reruns a trial on the sharded engine with two workers
// and requires everything a flow observes to equal the serial result.
func requireShards2Equal(t *testing.T, cfg SimConfig, serial *Result) {
	t.Helper()
	cfg.Shards = 2
	sh, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sh.Sharded {
		t.Fatalf("Shards=2 fell back to the serial engine: %s", sh.ShardNote)
	}
	if Fingerprint(sh) != Fingerprint(serial) {
		t.Error("Shards=2 diverges from the serial run")
	}
}

// shardedCase is one differential scenario. Explicit flows are built fresh
// per run through the factory — Flow objects are mutated by a run and must
// never be shared between the serial and sharded executions.
type shardedCase struct {
	name  string
	cfg   SimConfig
	flows func() []*netsim.Flow
}

func shardedCases() []shardedCase {
	// The two committed benchmark scenarios, end to end.
	satCfg := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	satCfg.Workload = ""
	satCfg.Horizon = 200 * sim.Millisecond
	sat := shardedCase{
		name: "saturation", cfg: satCfg,
		flows: func() []*netsim.Flow { return []*netsim.Flow{netsim.NewFlow(1, 0, 3, 2<<20, 0)} },
	}

	incastTopo := topo.Scaled()
	incastTopo.NumToRs = 8
	incastCfg := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	incastCfg.Workload = ""
	incastCfg.Topo = incastTopo
	incastCfg.Horizon = 400 * sim.Millisecond
	incast := shardedCase{
		name: "incast8tor", cfg: incastCfg,
		flows: func() []*netsim.Flow {
			var flows []*netsim.Flow
			for h := incastTopo.HostsPerToR; h < incastTopo.NumHosts(); h++ {
				flows = append(flows, netsim.NewFlow(int64(h), h, 0, 128<<10, 0))
			}
			return flows
		},
	}

	// Randomized Poisson workloads over both shardable transports; the
	// workload generator rebuilds identical flow sets from the seed, so no
	// factory is needed.
	dctcp := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	dctcp.Duration = sim.Millisecond
	dctcp.Seed = 21
	ndp := ScaledConfig(UCMP, transport.NDP, "websearch")
	ndp.Duration = sim.Millisecond
	ndp.Seed = 22
	ksp := ScaledConfig(KSP5, transport.DCTCP, "datamining")
	ksp.Duration = sim.Millisecond
	ksp.Seed = 23

	// Runtime fault injection mid-run: cable and switch failures strike and
	// partially repair, exercising epoch transitions, parked-packet expiry,
	// and online §5.3 recovery under the sharded engine. The recovery
	// counters and reroute-wait histogram are counters Fingerprint hashes
	// by name, so any serial/sharded divergence in fault handling fails the
	// differential, not just the FCT trace.
	faulty := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	faulty.Duration = sim.Millisecond
	faulty.Seed = 24
	faulty.Failures = failure.NewTimeline().
		LinkDown(200*sim.Microsecond, 3, 1).
		LinkDown(200*sim.Microsecond, 5, 0).
		SwitchDown(300*sim.Microsecond, 2).
		SwitchUp(700*sim.Microsecond, 2).
		LinkUp(900*sim.Microsecond, 3, 1)

	// The rotor-class baselines, shardable since the slice-boundary backlog
	// exchange (DESIGN.md §10): every VLB data packet is RotorLB traffic, so this
	// exercises VOQ drains, indirection capped by the published board, and
	// the receiver-side downlink staging under the sharded engine.
	vlb := ScaledConfig(VLB, transport.Rotor, "websearch")
	vlb.Duration = sim.Millisecond
	vlb.Seed = 25

	// Opera couples both planes: explicit flows straddle the 15 MB cutoff so
	// the run carries source-routed NDP traffic and rotor-class bulk at once.
	operaCfg := ScaledConfig(Opera5, transport.NDP, "websearch")
	operaCfg.Workload = ""
	operaCfg.Horizon = 4 * sim.Millisecond
	opera := shardedCase{
		name: "opera5-mixed", cfg: operaCfg,
		flows: func() []*netsim.Flow {
			flows := []*netsim.Flow{
				netsim.NewFlow(1, 0, 9, routing.FlowCutoff15MB, 0), // rotor-class bulk
			}
			for h := 1; h < 8; h++ {
				src := h * operaCfg.Topo.HostsPerToR
				flows = append(flows, netsim.NewFlow(int64(h+1), src, (src+17)%operaCfg.Topo.NumHosts(), 256<<10, 0))
			}
			return flows
		},
	}

	return []shardedCase{
		sat,
		incast,
		{name: "ucmp-dctcp-websearch", cfg: dctcp},
		{name: "ucmp-ndp-websearch", cfg: ndp},
		{name: "ksp5-dctcp-datamining", cfg: ksp},
		{name: "ucmp-dctcp-failures", cfg: faulty},
		{name: "vlb-rotor-websearch", cfg: vlb},
		opera,
	}
}

// TestDifferentialSerialSharded requires the conservative-PDES engine to
// reproduce the serial engine's results byte for byte, across worker counts.
func TestDifferentialSerialSharded(t *testing.T) {
	for _, tc := range shardedCases() {
		t.Run(tc.name, func(t *testing.T) {
			run := func(shards int) string {
				cfg := tc.cfg
				cfg.Shards = shards
				if tc.flows != nil {
					cfg.Flows = tc.flows()
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if shards > 1 && !res.Sharded {
					t.Fatalf("Shards=%d did not run sharded", shards)
				}
				if cfg.Routing == VLB && res.Mem.PeakParked == 0 {
					t.Fatalf("Shards=%d: no ToR VOQ ever held a record; the rotor case is vacuous", shards)
				}
				return Fingerprint(res)
			}
			serial := run(0)
			// 5 and 3 divide no case's domain count: the blocks are uneven.
			for _, shards := range []int{2, tc.cfg.Topo.NumToRs, 5, 3} {
				if got := run(shards); got != serial {
					t.Fatalf("sharded(shards=%d) diverges from serial:\n--- serial ---\n%s\n--- sharded ---\n%s",
						shards, serial, got)
				}
			}
		})
	}
}

// TestShardableGate pins both sides of the gate: plain UCMP and the
// rotor-class baselines (VLB, Opera, RotorLB transport) pass it whenever the
// slice duration covers the lookahead window, while latency relaxation and
// any config whose slice is shorter than the lookahead — every harness
// network publishes the slice-boundary board (DESIGN.md §10) — are refused:
// Run falls back to serial for those and records why in Result.ShardNote.
func TestShardableGate(t *testing.T) {
	good := []SimConfig{
		ScaledConfig(UCMP, transport.DCTCP, "websearch"),
		ScaledConfig(VLB, transport.Rotor, "websearch"),
		ScaledConfig(Opera1, transport.NDP, "websearch"),
		ScaledConfig(Opera5, transport.NDP, "websearch"),
	}
	for _, cfg := range good {
		if err := Shardable(cfg); err != nil {
			t.Fatalf("Shardable rejected %v/%v: %v", cfg.Routing, cfg.Transport, err)
		}
		cfg.Duration = 200 * sim.Microsecond
		cfg.Shards = 4
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Sharded {
			t.Fatalf("shardable config %v/%v fell back to serial", cfg.Routing, cfg.Transport)
		}
	}

	// A config whose slice is shorter than the lookahead window would let a
	// slice-boundary board race; the gate must refuse it whatever the
	// routing and transport, since every network carries the rotor board.
	short := func(c SimConfig) SimConfig { c.Topo.SliceDuration = c.Topo.PropDelay / 2; return c }
	bad := []SimConfig{
		short(ScaledConfig(UCMP, transport.DCTCP, "websearch")),
		short(ScaledConfig(VLB, transport.Rotor, "websearch")),
		func() SimConfig { c := ScaledConfig(UCMP, transport.DCTCP, "websearch"); c.Relax = true; return c }(),
	}
	for _, cfg := range bad {
		if err := Shardable(cfg); err == nil {
			t.Fatalf("Shardable accepted %v/%v relax=%v", cfg.Routing, cfg.Transport, cfg.Relax)
		}
		cfg.Duration = 100 * sim.Microsecond
		cfg.Shards = 4
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sharded {
			t.Fatalf("unshardable config %v/%v ran sharded", cfg.Routing, cfg.Transport)
		}
		if res.ShardNote == "" {
			t.Fatalf("serial fallback of %v/%v carries no ShardNote", cfg.Routing, cfg.Transport)
		}
	}
}

// TestShortSliceFallsBackSerial: a plain UCMP + DCTCP config whose slices
// are shorter than the lookahead, asked for four shards, runs on the serial
// engine and says why, instead of building a sharded network whose rotor
// board refuses the slice.
func TestShortSliceFallsBackSerial(t *testing.T) {
	cfg := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	cfg.Topo.SliceDuration = cfg.Topo.PropDelay / 2
	cfg.Duration = 100 * sim.Microsecond
	cfg.Shards = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sharded || res.Shards != 1 || !strings.Contains(res.ShardNote, "slice duration") {
		t.Fatalf("sharded=%v shards=%d note=%q, want a serial run whose note names the slice duration",
			res.Sharded, res.Shards, res.ShardNote)
	}
}

// TestShardsValidation pins the Shards-field contract: negative counts are
// an error, counts above the domain count clamp with a recorded note, and
// the effective shard count always lands in Result.Shards.
func TestShardsValidation(t *testing.T) {
	base := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	base.Duration = 100 * sim.Microsecond

	neg := base
	neg.Shards = -1
	if _, err := Run(neg); err == nil {
		t.Fatal("Run accepted Shards=-1")
	}

	big := base
	big.Shards = 10 * base.Topo.NumToRs
	res, err := Run(big)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sharded || res.Shards != base.Topo.NumToRs {
		t.Fatalf("Shards=%d: sharded=%v shards=%d, want clamp to %d",
			big.Shards, res.Sharded, res.Shards, base.Topo.NumToRs)
	}
	if res.ShardNote == "" {
		t.Fatal("clamped run carries no ShardNote")
	}

	serial := base
	res, err = Run(serial)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sharded || res.Shards != 1 || res.ShardNote != "" {
		t.Fatalf("serial run: sharded=%v shards=%d note=%q, want 1 shard, no note",
			res.Sharded, res.Shards, res.ShardNote)
	}

	four := base
	four.Shards = 4
	res, err = Run(four)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sharded || res.Shards != 4 || res.ShardNote != "" {
		t.Fatalf("Shards=4 run: sharded=%v shards=%d note=%q", res.Sharded, res.Shards, res.ShardNote)
	}
}

// TestShardedNonDividing64 is the domain-grouping differential at scale: a
// 64-ToR ring permutation run serial and on shard counts that do not divide
// the domain count, so the contiguous blocks are uneven (e.g. 64 on 7
// shards: blocks of 10 and 9 domains) and work stealing crosses block
// boundaries.
func TestShardedNonDividing64(t *testing.T) {
	cfg := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	cfg.Workload = ""
	cfg.Topo.NumToRs = 64
	cfg.Topo.Uplinks = 4
	cfg.Horizon = 30 * sim.Millisecond
	mkFlows := func() []*netsim.Flow {
		var fl []*netsim.Flow
		for tor := 0; tor < cfg.Topo.NumToRs; tor++ {
			src := tor * cfg.Topo.HostsPerToR
			dst := ((tor + 1) % cfg.Topo.NumToRs) * cfg.Topo.HostsPerToR
			fl = append(fl, netsim.NewFlow(int64(tor+1), src, dst, 256<<10, 0))
		}
		return fl
	}
	run := func(shards int) string {
		c := cfg
		c.Shards = shards
		c.Flows = mkFlows()
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if shards > 1 && (!res.Sharded || res.Shards != shards) {
			t.Fatalf("Shards=%d ran with sharded=%v shards=%d", shards, res.Sharded, res.Shards)
		}
		return Fingerprint(res)
	}
	serial := run(0)
	for _, shards := range []int{3, 5, 7} {
		if got := run(shards); got != serial {
			t.Fatalf("64 ToRs on %d shards diverges from serial:\n--- serial ---\n%s\n--- sharded ---\n%s",
				shards, serial, got)
		}
	}
}
