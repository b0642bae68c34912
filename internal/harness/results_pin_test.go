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
