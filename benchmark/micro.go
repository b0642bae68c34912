package main

import (
	"time"

	"ucmp/internal/core"
	"ucmp/internal/harness"
	"ucmp/internal/netsim"
	"ucmp/internal/routing"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
	"ucmp/internal/transport"
)

// microLayers times single layers with nothing else running: a path-set
// row, the router with no network behind it, the scheduler with no-op
// handlers, and each transport carrying one flow. They say whether a
// per-layer change happened at all; whether it matters is the end-to-end
// metrics' job.
func microLayers(tr *tracer, scale string, fab *topo.Fabric, router netsim.Router, layer map[string]float64) {
	n, flowBytes := 1_000_000, int64(8<<20)
	if scale == scaleTiny {
		n, flowBytes = 20_000, 256<<10
	}
	tr.do("micro.core.ComputeRow", func() { layer["core.compute_row_us"] = computeRowMicro(fab) })
	tr.do("micro.routing.PlanRoute", func() { layer["routing.plan_micro_ns"] = planMicro(fab, router, n) })
	tr.do("micro.sim.schedule", func() { layer["sim.sched_micro_ns"] = schedMicro(2 * n) })
	tr.do("micro.sim.timer", func() { layer["sim.timer_micro_ns"] = timerMicro(n) })
	for _, k := range []transport.Kind{transport.DCTCP, transport.NDP, transport.Rotor} {
		tr.do("micro.transport."+string(k), func() {
			layer["transport."+string(k)+"_micro_ns_per_pkt"] = transportMicro(k, flowBytes)
		})
	}
}

// timed runs fn and returns how long it took.
func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

func computeRowMicro(fab *topo.Fabric) float64 {
	calc := core.NewCalculator(fab)
	const rows = 8
	d := timed(func() {
		for i := 0; i < rows; i++ {
			calc.ComputeRow(i%fab.Sched.S, (i*7)%fab.NumToRs)
		}
	})
	return nsPer(d, rows) / 1e3
}

// planMicro calls PlanRoute n times on packets that walk every ToR pair,
// bucket and starting slice, reusing each packet's route storage as the
// network does.
func planMicro(fab *topo.Fabric, router netsim.Router, n int) float64 {
	buckets := 1
	if u, ok := router.(*routing.UCMP); ok {
		buckets = u.Ager.NumBuckets()
	}
	const npkts = 1024
	pkts := make([]*netsim.Packet, npkts)
	for i := range pkts {
		src := i % fab.NumToRs
		dst := (src + 1 + (i*31)%(fab.NumToRs-1)) % fab.NumToRs
		f := netsim.NewFlow(int64(i), src*fab.HostsPerToR, dst*fab.HostsPerToR, 1<<20, 0)
		pkts[i] = &netsim.Packet{
			Flow: f, Type: netsim.Data, PayloadLen: 1436, WireLen: 1500,
			SrcToR: src, DstToR: dst, SrcHost: f.SrcHost, DstHost: f.DstHost,
			Bucket: i % buckets,
		}
	}
	d := timed(func() {
		for i := 0; i < n; i++ {
			p := pkts[i%npkts]
			abs := int64(i % (4 * fab.Sched.S))
			p.Route, _ = router.PlanRoute(p, p.SrcToR, fab.SliceStart(abs), abs, p.Route[:0])
		}
	})
	return nsPer(d, n)
}

// schedMicro runs n events through the engine with 64k always pending:
// each no-op handler only schedules its successor up to ~1 ms ahead.
func schedMicro(n int) float64 {
	eng := sim.NewEngine()
	left := n
	var step func(any)
	step = func(arg any) {
		if left <= 0 {
			return
		}
		left--
		rng := arg.(*uint64)
		*rng = *rng*6364136223846793005 + 1442695040888963407
		eng.After1(sim.Time(*rng>>44), step, rng)
	}
	const pending = 64 << 10
	for i := 0; i < pending; i++ {
		rng := uint64(i)*2654435761 + 1
		eng.At1(sim.Time(i), step, &rng)
	}
	d := timed(func() { eng.RunAll() })
	return nsPer(d, int(eng.Processed()))
}

// timerMicro is the retransmission-timer pattern: every expiry re-arms its
// own timer and pushes a neighbour's deadline out, so the queue carries
// superseded occurrences for the engine to discard.
func timerMicro(n int) float64 {
	eng := sim.NewEngine()
	const k = 4096
	timers := make([]*sim.Timer, k)
	var rng uint64 = 1
	fired := 0
	for i := range timers {
		i := i
		timers[i] = eng.NewTimer(func() {
			fired++
			rng = rng*6364136223846793005 + 1442695040888963407
			jitter := sim.Time(rng >> 54)
			timers[(i+1)%k].Reset(eng.Now() + 200*sim.Microsecond + jitter)
			timers[i].Reset(eng.Now() + 100*sim.Microsecond + jitter)
		})
		timers[i].Reset(sim.Time(i+1) * 25)
	}
	d := timed(func() {
		for fired < n {
			eng.Run(eng.Now() + sim.Millisecond)
		}
	})
	return nsPer(d, fired)
}

// transportMicro carries one flow between two racks of the 16-ToR fabric and
// charges the whole run, less its set-up, to the packets delivered.
func transportMicro(k transport.Kind, flowBytes int64) float64 {
	cfg := harness.SimConfig{
		Topo: topo.Scaled(), Routing: harness.UCMP, Transport: k, Alpha: 0.5,
		Horizon: 50 * sim.Millisecond, Seed: 1,
	}
	if k == transport.Rotor {
		cfg.Routing = harness.VLB
	}
	run := func(horizon sim.Time) (time.Duration, int64) {
		c := cfg
		c.Horizon = horizon
		c.Flows = []*netsim.Flow{netsim.NewFlow(1, 0, cfg.Topo.NumHosts()-1, flowBytes, 0)}
		var pkts int64
		d := timed(func() {
			if r, err := harness.Run(c); err == nil {
				pkts = r.Counters.DataDelivered
			}
		})
		return d, pkts
	}
	setup, _ := run(1)
	total, pkts := run(cfg.Horizon)
	if pkts == 0 {
		return 0
	}
	return nsPer(total-setup, int(pkts))
}

// canary times two fixed loops, one bound by the ALU and one by memory
// latency, so that a throttled or shifted machine shows up next to the
// timing rows. The loops are frozen: changing them invalidates every
// recorded canary value. Tiny scale runs a fiftieth of them.
func canary(scale string) map[string]float64 {
	iters := 100_000_000
	if scale == scaleTiny {
		iters /= 50
	}
	var x uint64 = 88172645463325252
	alu := timed(func() {
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
	})
	const words = 8 << 20 // 64 MB, well past the last-level cache
	buf := make([]uint64, words)
	for i := range buf {
		buf[i] = uint64((i*4097 + 1) % words)
	}
	idx := x % words
	mem := timed(func() {
		for i := 0; i < iters/50; i++ {
			idx = buf[idx]
		}
	})
	buf[0] = idx // keep both loops' results live
	return map[string]float64{"machine.canary_alu_ms": ms(alu), "machine.canary_mem_ms": ms(mem)}
}
