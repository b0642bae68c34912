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
// completion, and the fabric Counters — to hashes of Fingerprint, one per
// engine feature the packet path exercises. A change to when the simulator
// schedules its own bookkeeping events (port wake-ups, timer occurrences)
// must leave every hash where it is; one that means to move a result
// updates the hash and says why.
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
	// and relaxed rotor-class data.
	reconf := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	reconf.Topo.ReconfDelay = 10 * sim.Microsecond

	relaxed := ScaledConfig(UCMP, transport.DCTCP, "datamining")
	relaxed.Relax = true

	cases := []struct {
		name string
		cfg  SimConfig
		want string
	}{
		{"ucmp-dctcp", dctcp, "1d7efd5dba90ac16"},
		{"ucmp-ndp-16x4", ndp, "f0247aae8dd527ab"},
		{"vlb-rotor", rotor, "311435fd1d68e856"},
		{"ucmp-dctcp-linkfail", failing, "fb4174030a822109"},
		{"ucmp-dctcp-shards2", sharded, "1d7efd5dba90ac16"},
		{"opera5-ndp", ScaledConfig(Opera5, transport.NDP, "websearch"), "fa12e54b765163a4"},
		{"ksp5-ndp", ScaledConfig(KSP5, transport.NDP, "websearch"), "cdfd80b26edc8a1d"},
		{"ucmp-dctcp-reconf10us", reconf, "ac951ca0b6eedda8"},
		{"ucmp-dctcp-relaxed-datamining", relaxed, "9ad3a1d0d31716d8"},
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
			fmt.Fprint(h, Fingerprint(res))
			if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.want {
				t.Errorf("results hash %s, pinned %s", got, tc.want)
			}
		})
	}
}
