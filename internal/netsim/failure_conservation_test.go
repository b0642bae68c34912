package netsim_test

import (
	"testing"

	"ucmp/internal/core"
	"ucmp/internal/failure"
	"ucmp/internal/netsim"
	"ucmp/internal/routing"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
	"ucmp/internal/transport"
)

// TestPacketConservationUnderFailureTimeline runs cross-rack traffic through
// a scripted outage — cables and a whole circuit switch go down mid-run, a
// ToR blinks off and back — and checks the same exact ledger as the healthy
// conservation tests: every injected data packet is delivered, trimmed,
// dropped, or visibly parked. Fault drops are ordinary drops in the ledger;
// repairs let TCP's RTO finish every flow so quiescence is reached.
func TestPacketConservationUnderFailureTimeline(t *testing.T) {
	cfg := topo.Scaled()
	fab := topo.MustFabric(cfg, "round-robin", 1)
	router := routing.NewUCMP(core.BuildPathSet(fab, 0.5))
	eng := sim.NewEngine()
	qs := transport.QueueSpec(transport.DCTCP)
	net := netsim.New(eng, fab, router, qs, qs, netsim.DefaultRotor())
	net.Stamper = router.StampBucket

	sched := failure.NewTimeline().
		LinkDown(100*sim.Microsecond, 0, 0).
		LinkDown(100*sim.Microsecond, 3, 1).
		SwitchDown(250*sim.Microsecond, 2).
		TorDown(300*sim.Microsecond, 5).
		TorUp(500*sim.Microsecond, 5).
		SwitchUp(600*sim.Microsecond, 2).
		LinkUp(900*sim.Microsecond, 0, 0).
		// (3,1) stays down for good: recovery must route around it.
		Compile(fab)
	net.Faults = sched
	router.Health = sched
	net.Start()
	stack := transport.NewStack(net, transport.DCTCP)

	// Cross-rack flows, several crossing the failed elements: sources and
	// sinks on ToRs 0, 3, and 5 plus background pairs. Sizes and staggered
	// starts make the flows span the whole outage window.
	var flows []*netsim.Flow
	id := int64(1)
	for _, pair := range [][2]int{
		{0, 7}, {1, 11}, {6, 21}, {7, 25}, {10, 3}, {11, 0}, {2, 30}, {15, 8},
	} {
		start := sim.Time(id-1) * 50 * sim.Microsecond
		flows = append(flows, netsim.NewFlow(id, pair[0], pair[1], 4<<20, start))
		id++
	}
	for _, f := range flows {
		stack.Launch(f)
	}
	eng.Run(2 * sim.Second)
	for _, f := range flows {
		if !f.Finished {
			t.Fatalf("flow %d unfinished (%d/%d bytes): outage not recovered, ledger would be inexact",
				f.ID, f.BytesDelivered, f.Size)
		}
	}

	c := net.Counters
	if c.DataInjected == 0 {
		t.Fatal("no data packets injected")
	}
	accounted := c.DataDelivered + c.TrimmedDelivered + c.DataDropped + net.InFlightData()
	if c.DataInjected != accounted {
		t.Fatalf("packet conservation violated under failures: injected=%d != delivered=%d + trimmed=%d + dropped=%d + inflight=%d",
			c.DataInjected, c.DataDelivered, c.TrimmedDelivered, c.DataDropped, net.InFlightData())
	}
	gets, puts, live, parked := net.PoolStats()
	if live != 0 || parked != 0 {
		t.Fatalf("pool leak at quiescence: gets=%d puts=%d live=%d parked=%d", gets, puts, live, parked)
	}

	// The outage must have been felt: some plans recovered onto alternates.
	recovered := c.RecoveredSameLength + c.RecoveredShorter + c.RecoveredLonger + c.RecoveredBackup
	if recovered == 0 {
		t.Fatal("no online recoveries despite an active outage; the scenario is vacuous")
	}
}
