package harness

import (
	"math/rand"
	"testing"

	"ucmp/internal/failure"
	"ucmp/internal/netsim"
	"ucmp/internal/routing"
	"ucmp/internal/sim"
	"ucmp/internal/transport"
)

// TestRunFailureRecoveryMatchesOfflineClassify: a packet-level link-failure
// run must produce a nonzero per-class recovery breakdown, and each class
// the router actually used online, backup included, must be reachable in
// the offline §5.3 classification of the same scenario (same PathSet, same
// failed elements). The implication only runs one way — the
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
	sc := failure.NewScenario(fab).FailLinks(0.1, rand.New(rand.NewSource(cfg.Seed)))
	cfg.Failures = failure.FromScenario(sc, cfg.Duration/4, -1)
	off := routing.Classify(buildPaths(fab, cfg).ps, routing.StaticHealth{Path: sc.PathOK, Tor: sc.TorOK})
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
	for _, p := range []struct {
		online int64
		class  netsim.RecoveryClass
	}{
		{rec.SameLength, netsim.RecoverySameLength},
		{rec.Shorter, netsim.RecoveryShorter},
		{rec.Longer, netsim.RecoveryLonger},
		{rec.Backup, netsim.RecoveryBackup},
	} {
		if p.online > 0 && off.Count[p.class] == 0 {
			t.Errorf("online used %s recovery %d times but offline Classify found no %s-recoverable path",
				p.class, p.online, p.class)
		}
	}
	if res.CompletionRate == 0 {
		t.Fatal("nothing completed under a 10% cable outage")
	}
}
