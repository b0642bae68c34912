package netsim_test

import (
	"testing"

	"ucmp/internal/core"
	"ucmp/internal/netsim"
	"ucmp/internal/routing"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
	"ucmp/internal/transport"
)

// checkConservation runs a workload to quiescence and checks the packet
// ledger: every injected data packet must end exactly once — delivered in
// full, delivered as a trimmed header, or dropped — with anything else still
// visibly parked in a queue. A packet leaked by the pool (or duplicated by a
// double-release) breaks the equation.
func checkConservation(t *testing.T, kind transport.Kind, flows func(cfg topo.Config) []*netsim.Flow) {
	t.Helper()
	cfg := topo.Scaled()
	fab := topo.MustFabric(cfg, "round-robin", 1)
	router := routing.NewUCMP(core.BuildPathSet(fab, 0.5))
	eng := sim.NewEngine()
	qs := transport.QueueSpec(kind)
	net := netsim.New(eng, fab, router, qs, qs, netsim.DefaultRotor())
	net.Stamper = router.StampBucket
	net.Start()
	stack := transport.NewStack(net, kind)
	launched := flows(cfg)
	for _, f := range launched {
		stack.Launch(f)
	}
	// The horizon is far past completion so every packet-carrying event has
	// drained: the only events still pending are the self-re-arming slice
	// clock and idle transport timers, and the ledger below is exact.
	eng.Run(2 * sim.Second)
	for _, f := range launched {
		if !f.Finished {
			t.Fatalf("flow %d unfinished (%d/%d bytes): no quiescence, ledger would be inexact",
				f.ID, f.BytesDelivered, f.Size)
		}
	}

	c := net.Counters
	if c.DataInjected == 0 {
		t.Fatal("no data packets injected; the scenario is vacuous")
	}
	accounted := c.DataDelivered + c.TrimmedDelivered + c.DataDropped + net.InFlightData()
	if c.DataInjected != accounted {
		t.Fatalf("packet conservation violated: injected=%d != delivered=%d + trimmed=%d + dropped=%d + inflight=%d (=%d)",
			c.DataInjected, c.DataDelivered, c.TrimmedDelivered, c.DataDropped, net.InFlightData(), accounted)
	}
	gets, puts, live, parked := net.PoolStats()
	if live != 0 || parked != 0 {
		t.Fatalf("pool leak at quiescence: gets=%d puts=%d live=%d parked=%d", gets, puts, live, parked)
	}
	// The calendar drained with the traffic: every queue the burst took is
	// back on its domain's free list, clean.
	if m := net.MemStats(); m.CalQueues == 0 || m.CalQueues != m.PeakCalSlots {
		t.Fatalf("%d calendar queues made, %d slots live at peak: want as many made as were ever live, and some", m.CalQueues, m.PeakCalSlots)
	}
	if err := net.CalendarPoolCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestPacketConservationDCTCP(t *testing.T) {
	checkConservation(t, transport.DCTCP, func(cfg topo.Config) []*netsim.Flow {
		// Cross-rack flows plus an incast on host 0 to force queue pressure
		// (ECN marks, window cuts, and some drops on the shared downlink).
		var flows []*netsim.Flow
		id := int64(1)
		for h := cfg.HostsPerToR; h < 6*cfg.HostsPerToR && h < cfg.NumHosts(); h++ {
			flows = append(flows, netsim.NewFlow(id, h, 0, 256<<10, 0))
			id++
		}
		flows = append(flows, netsim.NewFlow(id, 0, cfg.NumHosts()-1, 1<<20, 0))
		return flows
	})
}

// A full simulation under poison mode: any use-after-release or double
// release anywhere in the fabric panics instead of corrupting state.
func TestPoisonedRunStaysClean(t *testing.T) {
	netsim.PoisonPackets = true
	defer func() { netsim.PoisonPackets = false }()
	checkConservation(t, transport.DCTCP, func(cfg topo.Config) []*netsim.Flow {
		var flows []*netsim.Flow
		for h := cfg.HostsPerToR; h < 3*cfg.HostsPerToR && h < cfg.NumHosts(); h++ {
			flows = append(flows, netsim.NewFlow(int64(h), h, 0, 128<<10, 0))
		}
		return flows
	})
}

func TestPacketConservationNDPTrimming(t *testing.T) {
	checkConservation(t, transport.NDP, func(cfg topo.Config) []*netsim.Flow {
		// NDP's 80-packet trimming queues under incast guarantee trimmed
		// headers, exercising the TrimmedDelivered leg of the ledger.
		var flows []*netsim.Flow
		for h := cfg.HostsPerToR; h < 8*cfg.HostsPerToR && h < cfg.NumHosts(); h++ {
			flows = append(flows, netsim.NewFlow(int64(h), h, 0, 512<<10, 0))
		}
		return flows
	})
}
