package failure_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ucmp/internal/core"
	"ucmp/internal/failure"
	"ucmp/internal/netsim"
	"ucmp/internal/routing"
	"ucmp/internal/topo"
)

// These tests read failure scenarios through the router's §5.3 policy,
// routing.Classify, the way Fig 12a–c does.

func scaledPathSet(t testing.TB) (*topo.Fabric, *core.PathSet) {
	t.Helper()
	f := topo.MustFabric(topo.Scaled(), "round-robin", 1)
	return f, core.BuildPathSet(f, 0.5)
}

func classify(ps *core.PathSet, sc *failure.Scenario) routing.Breakdown {
	return routing.Classify(ps, routing.StaticHealth{Path: sc.PathOK, Tor: sc.TorOK})
}

// checkBreakdown pins the invariants every consumer of a Breakdown relies
// on: Affected within [0, Total], every share in [0, 1], and shares that
// sum to 1 over the affected paths (0 when none is affected). An affected
// path never resolves to its own, broken, primary.
func checkBreakdown(b routing.Breakdown) string {
	if b.Affected < 0 || b.Affected > b.Total {
		return "Affected outside [0, Total]"
	}
	if b.Count[netsim.RecoveryPrimary] != 0 {
		return "a broken path resolved to itself"
	}
	var sum float64
	for c := range b.Count {
		s := b.Share(netsim.RecoveryClass(c))
		if s < 0 || s > 1 {
			return "share out of range"
		}
		sum += s
	}
	if b.Affected == 0 && sum != 0 {
		return "shares with nothing affected"
	}
	if b.Affected > 0 && math.Abs(sum-1) > 1e-9 {
		return "shares do not sum to 1"
	}
	return ""
}

func TestHealthyScenarioPassesEverything(t *testing.T) {
	f, ps := scaledPathSet(t)
	sc := failure.NewScenario(f)
	for src := 0; src < f.NumToRs; src++ {
		if !sc.TorOK(src) {
			t.Fatal("healthy ToR reported failed")
		}
	}
	b := classify(ps, sc)
	if b.Affected != 0 {
		t.Fatalf("healthy scenario affected %d paths", b.Affected)
	}
	if b.Total == 0 {
		t.Fatal("no paths walked")
	}
}

func TestFailToRsAffectsPaths(t *testing.T) {
	f, ps := scaledPathSet(t)
	sc := failure.NewScenario(f).FailToRs(0.1, rand.New(rand.NewSource(1)))
	failed := 0
	for tor := 0; tor < f.NumToRs; tor++ {
		if !sc.TorOK(tor) {
			failed++
		}
	}
	if failed < 1 || failed > 3 {
		t.Fatalf("failed %d ToRs for 10%% of 16", failed)
	}
	b := classify(ps, sc)
	if b.Affected == 0 {
		t.Fatal("no affected paths")
	}
	var sum float64
	for c := range b.Count {
		sum += b.Share(netsim.RecoveryClass(c))
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum %v", sum)
	}
	// The paper's headline: the large majority recover to a same-length
	// path, and unrecoverable stays tiny at 10% ToR failures.
	if s := b.Share(netsim.RecoverySameLength); s < 0.4 {
		t.Errorf("same-length share %.2f unexpectedly low", s)
	}
	if s := b.Share(netsim.RecoveryNone); s > 0.05 {
		t.Errorf("unrecoverable share %.3f above 5%%", s)
	}
}

func TestFailSwitchesConnectivity(t *testing.T) {
	f, ps := scaledPathSet(t)
	// 1 of 3 switches down (the paper's 16.6% is 1 of 6).
	sc := failure.NewScenario(f).FailSwitches(0.3, rand.New(rand.NewSource(3)))
	b := classify(ps, sc)
	if b.Affected == 0 {
		t.Fatal("switch failure affected nothing")
	}
	// Connectivity is preserved: unrecoverable must be rare (<5%) at 1/3
	// switches down on the scaled fabric.
	if s := b.Share(netsim.RecoveryNone); s > 0.05 {
		t.Errorf("unrecoverable %.3f with one switch down", s)
	}
}

func TestClassifyProperties(t *testing.T) {
	f, ps := scaledPathSet(t)
	prop := func(seed int64, torF, linkF, swF uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sc := failure.NewScenario(f).
			FailToRs(float64(torF%40)/100, rng).
			FailLinks(float64(linkF%40)/100, rng).
			FailSwitches(float64(swF%34)/100, rng)
		b := classify(ps, sc)
		if msg := checkBreakdown(b); msg != "" {
			t.Logf("%s: %+v", msg, b)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(12))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestClassifyAllHealthyIsZero(t *testing.T) {
	f, ps := scaledPathSet(t)
	b := classify(ps, failure.NewScenario(f))
	if b.Affected != 0 {
		t.Fatalf("healthy scenario affected %d", b.Affected)
	}
	if b.Count != (routing.Breakdown{}).Count {
		t.Fatalf("healthy scenario counts %v", b.Count)
	}
}

// Fuzz the scenario space a little harder than quick.Check does, pinning
// the invariants that every downstream consumer relies on.
func FuzzClassifyInvariants(fz *testing.F) {
	fz.Add(int64(1), 0.1, 0.05, 0.0)
	fz.Add(int64(2), 0.0, 0.0, 0.33)
	fz.Add(int64(3), 1.0, 1.0, 1.0)
	fz.Add(int64(4), -0.5, math.NaN(), 2.0)
	f, ps := scaledPathSet(fz)
	fz.Fuzz(func(t *testing.T, seed int64, torF, linkF, swF float64) {
		rng := rand.New(rand.NewSource(seed))
		sc := failure.NewScenario(f).FailToRs(torF, rng).FailLinks(linkF, rng).FailSwitches(swF, rng)
		if b := classify(ps, sc); checkBreakdown(b) != "" {
			t.Fatalf("%s: %+v", checkBreakdown(b), b)
		}
	})
}
