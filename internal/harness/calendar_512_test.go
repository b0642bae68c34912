package harness

import (
	"testing"

	"ucmp/internal/checkpoint"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
	"ucmp/internal/transport"
)

// The benchmark's warm512 run — 512 ToRs x 8 uplinks x 2 hosts at 100 Gbps,
// UCMP + NDP, web search at 40% load for 500 us — names 512·8·64 = 262,144
// calendar queues and plans a few slices ahead: the queues it ever builds
// stay in the hundreds (873 at seed 1), each taken from and returned to a
// free list, and the run reports as much in Result.Mem. The event count is the
// benchmark's own at this seed (20,366,097 while a ToR's ingress drain was an
// event), and no event carries the retired Flush kind. Shards=2 reproduces
// every flow of it.
func TestCalendarStaysSparseAt512(t *testing.T) {
	if testing.Short() {
		t.Skip("512-ToR trial (~3 s)")
	}
	fab := topo.PaperDefault()
	fab.NumToRs, fab.Uplinks, fab.HostsPerToR = 512, 8, 2
	cfg := SimConfig{
		Topo: fab, Routing: UCMP, Transport: transport.NDP, Alpha: 0.5,
		Workload: "websearch", Load: 0.4, MaxFlowSize: 64 << 20,
		Duration: 500 * sim.Microsecond, Horizon: 2 * sim.Millisecond, SampleEvery: 500 * sim.Microsecond, Seed: 1,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Mem
	t.Logf("%d events, peak %d live calendar slots, %d calendar queues created", res.Events, m.PeakCalSlots, m.CalQueues)
	if m.CalQueues == 0 || m.CalQueues >= 2000 || m.CalQueues != m.PeakCalSlots {
		t.Fatalf("%d calendar queues created, %d slots live at peak: want the same few hundred, under 2000 of the 262,144 the schedule names",
			m.CalQueues, m.PeakCalSlots)
	}
	if res.Events != 15_675_327 || res.EventKinds[checkpoint.KindFlush] != 0 {
		t.Fatalf("%d events, %d of the Flush kind; want 15675327 and none", res.Events, res.EventKinds[checkpoint.KindFlush])
	}
	// The same trial with one lookahead domain per ToR under two workers.
	requireShards2Equal(t, cfg, res)
}
