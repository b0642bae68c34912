package harness

import (
	"fmt"
	"hash/fnv"
	"testing"

	"ucmp/internal/failure"
	"ucmp/internal/sim"
	"ucmp/internal/transport"
)

// TestResultsPinned pins what a run computes — every flow's progress and
// completion, and the fabric Counters — to hashes of fingerprint without the
// event count, one per engine feature the packet path exercises. A change to
// when the simulator schedules its own bookkeeping events (port wake-ups,
// timer occurrences) must leave every hash where it is; one that means to
// move a result updates the hash and says why.
func TestResultsPinned(t *testing.T) {
	dctcp := ScaledConfig(UCMP, transport.DCTCP, "websearch")

	ndp := ScaledConfig(UCMP, transport.NDP, "websearch")
	ndp.Topo.Uplinks = 4 // (16, 4): the rotation-symmetric fabric

	rotor := ScaledConfig(VLB, transport.Rotor, "datamining")

	failing := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	failing.Failures = failure.NewTimeline().
		LinkDown(200*sim.Microsecond, 3, 1).
		LinkUp(600*sim.Microsecond, 3, 1)

	sharded := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	sharded.Shards = 2

	// Uplink wake paths the five above miss: circuit-open waits under
	// staggered reconfiguration (Opera), a reconfiguration delay, KSP plans,
	// congestion steering, and relaxed rotor-class data.
	reconf := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	reconf.Topo.ReconfDelay = 10 * sim.Microsecond

	steered := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	steered.CongestionAware = true

	relaxed := ScaledConfig(UCMP, transport.DCTCP, "datamining")
	relaxed.Relax = true

	cases := []struct {
		name string
		cfg  SimConfig
		want string
	}{
		{"ucmp-dctcp", dctcp, "f7dbea8169b8fcbe"},
		{"ucmp-ndp-16x4", ndp, "5159d4036edf3245"},
		{"vlb-rotor", rotor, "88083b268b40ee67"},
		{"ucmp-dctcp-linkfail", failing, "940f9811c754a2e6"},
		{"ucmp-dctcp-shards2", sharded, "f7dbea8169b8fcbe"},
		{"opera5-ndp", ScaledConfig(Opera5, transport.NDP, "websearch"), "d88a3a5d60e611c3"},
		{"ksp5-ndp", ScaledConfig(KSP5, transport.NDP, "websearch"), "d3d895e86d45c0b2"},
		{"ucmp-dctcp-reconf10us", reconf, "ff71cb975da48f46"},
		{"ucmp-dctcp-steered", steered, "e8965ad8ec4fd7b2"},
		{"ucmp-dctcp-relaxed-datamining", relaxed, "c42aad205ca632d4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.cfg.Shards > 1 && !res.Sharded {
				t.Fatalf("sharded run fell back to serial: %s", res.ShardNote)
			}
			h := fnv.New64a()
			fmt.Fprint(h, fingerprint(res, false))
			if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.want {
				t.Errorf("results hash %s, pinned %s", got, tc.want)
			}
		})
	}
}
