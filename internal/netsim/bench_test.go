package netsim_test

import (
	"fmt"
	"testing"

	"ucmp/internal/core"
	"ucmp/internal/failure"
	"ucmp/internal/netsim"
	"ucmp/internal/routing"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
	"ucmp/internal/transport"
)

// The two benchmarks below are the per-packet hot-path probes `make
// bench-netsim` runs: a single-uplink saturation run (one bulk flow
// crossing one ToR-to-ToR port) and an 8-ToR incast (every other host
// sending to host 0, saturating one downlink). Both report allocs/op over a
// whole simulation run and sim events/sec, the numbers the packet arena and
// map-free dispatch are meant to move. Fabric, path set, and router are
// built once and shared: routers are read-only at plan time, so the loop
// body measures only the online simulator.

type benchEnv struct {
	fab    *topo.Fabric
	router *routing.UCMP
}

func newBenchEnv(cfg topo.Config) *benchEnv {
	fab := topo.MustFabric(cfg, "round-robin", 1)
	return &benchEnv{fab: fab, router: routing.NewUCMP(core.BuildPathSet(fab, 0.5))}
}

// runBenchFlows wires a fresh engine+network, launches the flows, and runs
// to the horizon, failing the benchmark if any flow is left unfinished.
func (e *benchEnv) runBenchFlows(b *testing.B, flows []*netsim.Flow, horizon sim.Time) uint64 {
	b.Helper()
	eng := sim.NewEngine()
	qs := transport.QueueSpec(transport.DCTCP)
	net := netsim.New(eng, e.fab, e.router, qs, qs, netsim.DefaultRotor())
	net.Stamper = e.router.StampBucket
	net.Start()
	stack := transport.NewStack(net, transport.DCTCP)
	for _, f := range flows {
		stack.Launch(f)
	}
	eng.Run(horizon)
	for _, f := range flows {
		if !f.Finished {
			b.Fatalf("flow %d unfinished: %d/%d bytes delivered (drops=%d)",
				f.ID, f.BytesDelivered, f.Size, net.Counters.DroppedPackets)
		}
	}
	return eng.Processed()
}

// BenchmarkSaturation drives one 2 MB DCTCP flow between two racks: the
// classic single-port saturation microbenchmark (every data packet crosses
// one host NIC, one uplink calendar queue, and one downlink).
func BenchmarkSaturation(b *testing.B) {
	env := newBenchEnv(topo.Scaled())
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		flows := []*netsim.Flow{netsim.NewFlow(1, 0, 3, 2<<20, 0)}
		events += env.runBenchFlows(b, flows, 200*sim.Millisecond)
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// saturation64 is the sharded-engine exhibit: a 64-ToR fabric where every
// rack's first host streams 1 MB to the next rack over (ring permutation),
// so all 64 lookahead domains carry traffic and every data packet crosses
// a domain boundary.
func saturation64() (topo.Config, func() []*netsim.Flow, sim.Time) {
	cfg := topo.Scaled()
	cfg.NumToRs = 64
	cfg.Uplinks = 4
	cfg.HostsPerToR = 2
	flows := func() []*netsim.Flow {
		var fl []*netsim.Flow
		for t := 0; t < cfg.NumToRs; t++ {
			src := t * cfg.HostsPerToR
			dst := ((t + 1) % cfg.NumToRs) * cfg.HostsPerToR
			fl = append(fl, netsim.NewFlow(int64(t+1), src, dst, 1<<20, 0))
		}
		return fl
	}
	return cfg, flows, 50 * sim.Millisecond
}

// BenchmarkSaturation64 is the serial baseline for the 64-ToR permutation.
func BenchmarkSaturation64(b *testing.B) {
	cfg, mkFlows, horizon := saturation64()
	env := newBenchEnv(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		events += env.runBenchFlows(b, mkFlows(), horizon)
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// runSharded64 executes one saturation64 iteration on the sharded engine
// and returns the events processed.
func (e *benchEnv) runSharded64(b *testing.B, workers int, flows []*netsim.Flow, horizon sim.Time) uint64 {
	b.Helper()
	sh := sim.NewShardedEngine(e.fab.NumToRs, workers, netsim.ShardLookahead(e.fab), sim.QueueWheel)
	qs := transport.QueueSpec(transport.DCTCP)
	net := netsim.NewSharded(sh, e.fab, e.router, qs, qs, netsim.DefaultRotor())
	net.Stamper = e.router.StampBucket
	net.Start()
	stack := transport.NewStack(net, transport.DCTCP)
	for _, f := range flows {
		stack.Launch(f)
	}
	sh.Run(horizon)
	net.FinalizeSharded()
	for _, f := range flows {
		if !f.Finished {
			b.Fatalf("flow %d unfinished: %d/%d bytes delivered (drops=%d)",
				f.ID, f.BytesDelivered, f.Size, net.Counters.DroppedPackets)
		}
	}
	return sh.Processed()
}

// BenchmarkSaturation64Sharded runs the same scenario on the
// conservative-PDES engine with 4 workers. On a multi-core machine this is
// the headline speedup exhibit; under GOMAXPROCS=1 it measures the
// sharding overhead instead (barriers + mailbox merges with no parallelism
// to pay for them).
func BenchmarkSaturation64Sharded(b *testing.B) {
	cfg, mkFlows, horizon := saturation64()
	env := newBenchEnv(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		events += env.runSharded64(b, 4, mkFlows(), horizon)
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkShardScaling is the multicore scaling probe: the 64-ToR
// permutation at worker counts 1..16 plus the serial engine as the 1x
// reference. Run it with all cores (`make bench-scaling`); on one core it
// measures sharding overhead, not speedup.
func BenchmarkShardScaling(b *testing.B) {
	cfg, mkFlows, horizon := saturation64()
	env := newBenchEnv(cfg)
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		var events uint64
		for i := 0; i < b.N; i++ {
			events += env.runBenchFlows(b, mkFlows(), horizon)
		}
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	})
	for _, workers := range []int{1, 2, 4, 8, 16} {
		workers := workers
		b.Run(fmt.Sprintf("shards=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				events += env.runSharded64(b, workers, mkFlows(), horizon)
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// congestion64 is the congestion-aware ladder scenario: the 64-ToR ring
// permutation with an incast overlaid onto rack 0 (the second host of racks
// 1..16 each push 256 KB to host 0), so calendar queues build and the
// board-backed steering engages at a low threshold.
func congestion64() (topo.Config, func() []*netsim.Flow, sim.Time) {
	cfg, mkRing, _ := saturation64()
	flows := func() []*netsim.Flow {
		fl := mkRing()
		for t := 1; t <= 16; t++ {
			src := t*cfg.HostsPerToR + 1
			fl = append(fl, netsim.NewFlow(int64(1000+t), src, 0, 256<<10, 0))
		}
		return fl
	}
	return cfg, flows, 80 * sim.Millisecond
}

// runCongestion64 executes one congestion64 iteration — board enabled,
// UCMP steering on at threshold 2 — on the serial engine (workers == 0) or
// the sharded engine, and fails the benchmark if the steering never
// engaged (an idle congestion path would make the ladder meaningless).
func (e *benchEnv) runCongestion64(b *testing.B, workers int, flows []*netsim.Flow, horizon sim.Time) uint64 {
	b.Helper()
	qs := transport.QueueSpec(transport.DCTCP)
	var eng *sim.Engine
	var sh *sim.ShardedEngine
	var net *netsim.Network
	if workers == 0 {
		eng = sim.NewEngine()
		net = netsim.New(eng, e.fab, e.router, qs, qs, netsim.DefaultRotor())
	} else {
		sh = sim.NewShardedEngine(e.fab.NumToRs, workers, netsim.ShardLookahead(e.fab), sim.QueueWheel)
		net = netsim.NewSharded(sh, e.fab, e.router, qs, qs, netsim.DefaultRotor())
	}
	net.EnableCongestionBoard()
	e.router.Backlog = net.CongestionBacklog
	e.router.CongestionThreshold = 2
	defer func() { e.router.Backlog = nil; e.router.CongestionThreshold = 0 }()
	net.Stamper = e.router.StampBucket
	net.Start()
	stack := transport.NewStack(net, transport.DCTCP)
	for _, f := range flows {
		stack.Launch(f)
	}
	var events uint64
	if workers == 0 {
		eng.Run(horizon)
		events = eng.Processed()
	} else {
		sh.Run(horizon)
		net.FinalizeSharded()
		events = sh.Processed()
	}
	for _, f := range flows {
		if !f.Finished {
			b.Fatalf("flow %d unfinished: %d/%d bytes delivered (drops=%d)",
				f.ID, f.BytesDelivered, f.Size, net.Counters.DroppedPackets)
		}
	}
	if net.Counters.CongestionSteered == 0 {
		b.Fatal("congestion steering never engaged")
	}
	return events
}

// BenchmarkCongestionSharded is the congestion-aware multicore ladder: the
// congestion64 scenario on the serial engine and at 1/2/4/8/16 workers.
// Like BenchmarkShardScaling it wants all cores (the committed >1x-at-4+-
// workers numbers come from the CI bench job); under GOMAXPROCS=1 the
// sharded rungs record overhead, not speedup. The serial rung doubles as
// the engaged-steering hot-path exhibit for the regression gate.
func BenchmarkCongestionSharded(b *testing.B) {
	cfg, mkFlows, horizon := congestion64()
	env := newBenchEnv(cfg)
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		var events uint64
		for i := 0; i < b.N; i++ {
			events += env.runCongestion64(b, 0, mkFlows(), horizon)
		}
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	})
	for _, workers := range []int{1, 2, 4, 8, 16} {
		workers := workers
		b.Run(fmt.Sprintf("shards=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				events += env.runCongestion64(b, workers, mkFlows(), horizon)
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkSaturationFailover is the fault-path exhibit: the saturation
// scenario with an active failure schedule — two uplink cables blink off and
// back mid-transfer — so every route plan pays the epoch lookup and some
// packets take the full park-expire-replan recovery path. The companion
// no-timeline benchmarks above are the zero-cost gate (Faults == nil must
// stay within 10% of the PR-4 record); this one prices fault handling when
// it is actually on.
func BenchmarkSaturationFailover(b *testing.B) {
	env := newBenchEnv(topo.Scaled())
	sched := failure.NewTimeline().
		LinkDown(50*sim.Microsecond, 0, 0).
		LinkDown(50*sim.Microsecond, 1, 1).
		LinkUp(400*sim.Microsecond, 0, 0).
		LinkUp(400*sim.Microsecond, 1, 1).
		Compile(env.fab)
	env.router.Health = sched
	defer func() { env.router.Health = nil }()
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		qs := transport.QueueSpec(transport.DCTCP)
		net := netsim.New(eng, env.fab, env.router, qs, qs, netsim.DefaultRotor())
		net.Stamper = env.router.StampBucket
		net.Faults = sched
		net.Start()
		stack := transport.NewStack(net, transport.DCTCP)
		flows := []*netsim.Flow{netsim.NewFlow(1, 0, 3, 2<<20, 0)}
		for _, f := range flows {
			stack.Launch(f)
		}
		eng.Run(200 * sim.Millisecond)
		for _, f := range flows {
			if !f.Finished {
				b.Fatalf("flow %d unfinished: %d/%d bytes delivered (drops=%d)",
					f.ID, f.BytesDelivered, f.Size, net.Counters.DroppedPackets)
			}
		}
		events += eng.Processed()
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkIncast8ToR is the full-fabric stress: an 8-ToR fabric where
// every host outside rack 0 sends 128 KB to host 0 concurrently.
func BenchmarkIncast8ToR(b *testing.B) {
	cfg := topo.Scaled()
	cfg.NumToRs = 8
	env := newBenchEnv(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		var flows []*netsim.Flow
		for h := cfg.HostsPerToR; h < cfg.NumHosts(); h++ {
			flows = append(flows, netsim.NewFlow(int64(h), h, 0, 128<<10, 0))
		}
		events += env.runBenchFlows(b, flows, 400*sim.Millisecond)
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkHostNICEnqueueManyFlows is the NIC-state exhibit: with 32,000
// flows registered, every host fair-queues one packet on each of sixteen
// late-registered flows and the fabric drains them. B/op is what the NICs
// and the packet path allocate for that — it must not depend on how many
// flows are registered (a per-host table indexed by flow cost 32 hosts ×
// 32,000 × 32 B = 33 MB/op here). Network construction and flow registration
// sit outside the timer.
func BenchmarkHostNICEnqueueManyFlows(b *testing.B) {
	env := newBenchEnv(topo.Scaled())
	const flowsPerHost, active = 1000, 16
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := sim.NewEngine()
		qs := transport.QueueSpec(transport.DCTCP)
		net := netsim.New(eng, env.fab, env.router, qs, qs, netsim.DefaultRotor())
		net.Stamper = env.router.StampBucket
		net.Start()
		hosts := len(net.Hosts)
		flows := make([]*netsim.Flow, flowsPerHost*hosts)
		for j := range flows {
			src := j % hosts
			flows[j] = netsim.NewFlow(int64(j+1), src, (src+env.fab.HostsPerToR)%hosts, 1436, 0)
			net.RegisterFlow(flows[j])
		}
		b.StartTimer()
		for _, f := range flows[len(flows)-active*hosts:] {
			p := net.Hosts[f.SrcHost].NewPacket()
			p.Flow, p.Type, p.PayloadLen, p.WireLen = f, netsim.Data, 1436, 1500
			net.Hosts[f.SrcHost].Send(p)
		}
		eng.Run(sim.Millisecond)
		if net.Counters.DataDelivered == 0 {
			b.Fatal("nothing delivered")
		}
	}
}

// BenchmarkNetworkBuild512 is netsim.New at the warm512 size — 512 ToRs, 8
// uplinks, 2 hosts, NDP queues: what wiring the fabric costs before the first
// packet exists. B/op is the number to watch: the schedule names 262,144
// calendar queues here, and none of them is built until a packet needs it.
func BenchmarkNetworkBuild512(b *testing.B) {
	cfg := topo.Scaled()
	cfg.NumToRs, cfg.Uplinks, cfg.HostsPerToR = 512, 8, 2
	fab := topo.MustFabric(cfg, "round-robin", 1)
	router := routing.NewVLB(fab)
	qs := transport.QueueSpec(transport.NDP)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if net := netsim.New(sim.NewEngine(), fab, router, qs, qs, netsim.RotorConfig{}); len(net.ToRs) != 512 {
			b.Fatal("network not built")
		}
	}
}
