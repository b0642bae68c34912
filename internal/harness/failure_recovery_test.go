package harness

import (
	"testing"

	"ucmp/internal/failure"
	"ucmp/internal/sim"
	"ucmp/internal/transport"
)

// TestRunFailureRecoveryMatchesOfflineClassify is the PR's acceptance test:
// a packet-level link-failure run must produce a nonzero per-class recovery
// breakdown, and each in-group class the router actually used online must be
// reachable in the offline §5.3 classification of the same scenario (same
// PathSet, same failed elements). The implication only runs one way — the
// offline walk covers every path while the run only touches paths carrying
// traffic.
func TestRunFailureRecoveryMatchesOfflineClassify(t *testing.T) {
	cfg := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	cfg.Duration = 2 * sim.Millisecond
	cfg.Seed = 5

	fab, err := newFabricFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := newLinkFailures(fab, 0.1, cfg.Seed)
	cfg.Failures = failure.FromScenario(sc, cfg.Duration/4, -1)
	ps, _ := timedPathSet(fab, cfg)
	off := failure.Classify(ps, sc)
	if off.Affected == 0 {
		t.Fatal("offline scenario affected nothing; the test is vacuous")
	}

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Recovery
	if rec.Total() == 0 {
		t.Fatal("no online recovery activity despite 10% of cables failing mid-run")
	}
	if rec.Recovered() == 0 {
		t.Fatal("every recovery attempt failed on a mildly-degraded fabric")
	}
	type classPair struct {
		name   string
		online int64
		off    failure.Recovery
	}
	for _, p := range []classPair{
		{"same-length", rec.SameLength, failure.SameLength},
		{"shorter", rec.Shorter, failure.Shorter},
		{"longer", rec.Longer, failure.Longer},
	} {
		if p.online > 0 && off.Share[p.off] == 0 {
			t.Errorf("online used %s recovery %d times but offline Classify found no %s-recoverable path",
				p.name, p.online, p.name)
		}
	}
	// The shares view must be a proper distribution over Total.
	var sum float64
	for _, s := range rec.BreakdownShares() {
		if s < 0 || s > 1 {
			t.Fatalf("online share out of range: %v", rec.BreakdownShares())
		}
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("online shares sum to %v", sum)
	}
	if res.CompletionRate == 0 {
		t.Fatal("nothing completed under a 10% cable outage")
	}
}
