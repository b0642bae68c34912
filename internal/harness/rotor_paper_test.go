package harness

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"ucmp/internal/sim"
	"ucmp/internal/topo"
	"ucmp/internal/transport"
)

// rotorPaperFingerprint is FNV-1a over fingerprintCore() of the trial below —
// every flow's bytes and completion instant and the full Counters — as the
// commit before Host.SendRun produced it (PR 16, where the trial allocated
// 524 MB). The event count is pinned beside it, not inside it: it is what a
// change to how the simulator spends events moves (12,687,762 while a ToR's
// ingress drain was an event of its own), and nothing a flow observes.
const (
	rotorPaperFingerprint = "3669f963a701a22e"
	rotorPaperEvents      = 10_968_665
)

// The paper's own RotorLB sizing — 108 ToRs × 6 uplinks × 6 hosts, VLB over
// the rotor transport, data mining with flows up to 64 MB arriving for 1 ms:
// long flows start without their packets existing, so the trial's allocation
// stays far below the per-packet sender's, and nothing any flow observes
// moved — nor does it under Shards=2.
func TestRotorPaperSizingAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale trial (~4 s)")
	}
	cfg := SimConfig{
		Topo: topo.PaperDefault(), Routing: VLB, Transport: transport.Rotor, Alpha: 0.5,
		Workload: "datamining", Load: 0.4, MaxFlowSize: 64 << 20,
		Duration: sim.Millisecond, Horizon: 4 * sim.Millisecond, Seed: 1,
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write([]byte(fingerprintCore(res)))
	if got := fmt.Sprintf("%016x", h.Sum64()); got != rotorPaperFingerprint {
		t.Errorf("fingerprint %s, want %s", got, rotorPaperFingerprint)
	}
	if res.Events != rotorPaperEvents {
		t.Errorf("%d events, want %d", res.Events, rotorPaperEvents)
	}
	if got := (after.TotalAlloc - before.TotalAlloc) >> 20; got > 90 {
		t.Errorf("the trial allocated %d MB, want at most 90", got)
	}
	// The same trial on the sharded engine: nothing a flow observes moves.
	requireShards2Equal(t, cfg, res)
	// What waits in a ToR VOQ is a run of a flow's segments: the backlog is in
	// the hundreds of thousands of packets, the Packets that ever existed at
	// once (most of them staged at a destination downlink) a fraction of it,
	// and the chunks holding the runs a sixteenth of it or less.
	if m := res.Mem; m.PeakParked < 250_000 || m.PeakPackets*3 > m.PeakParked || m.VOQChunks*16 > m.PeakParked {
		t.Errorf("peak %d parked packets in %d chunks beside %d live packets: want a deep backlog held as runs",
			m.PeakParked, m.VOQChunks, m.PeakPackets)
	}
}
