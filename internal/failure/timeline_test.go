package failure

import (
	"math/rand"
	"testing"

	"ucmp/internal/core"
	"ucmp/internal/sim"
)

func TestEmptyTimelineCompilesToOneHealthyEpoch(t *testing.T) {
	f, _ := fixture(t)
	for _, tl := range []*Timeline{nil, NewTimeline()} {
		if !tl.Empty() {
			t.Fatal("empty timeline not Empty")
		}
		s := tl.Compile(f)
		if s.Epochs() != 1 {
			t.Fatalf("empty timeline compiled to %d epochs", s.Epochs())
		}
		if !s.TorOK(0, 0) || !s.LinkOK(sim.Second, 3, 1) {
			t.Fatal("healthy schedule reported a failure")
		}
	}
}

func TestScheduleEpochTransitions(t *testing.T) {
	f, _ := fixture(t)
	down, up := 100*sim.Microsecond, 500*sim.Microsecond
	s := NewTimeline().
		LinkDown(down, 3, 1).
		TorDown(down, 7).
		LinkUp(up, 3, 1).
		TorUp(up, 7).
		Compile(f)
	if s.Epochs() != 3 {
		t.Fatalf("%d epochs, want 3 (healthy, down, repaired)", s.Epochs())
	}
	type probe struct {
		at            sim.Time
		linkOK, torOK bool
	}
	for _, p := range []probe{
		{0, true, true},
		{down - 1, true, true},
		{down, false, false}, // epoch start is inclusive
		{up - 1, false, false},
		{up, true, true},
		{2 * sim.Second, true, true},
	} {
		if got := s.LinkOK(p.at, 3, 1); got != p.linkOK {
			t.Fatalf("LinkOK(%v) = %v, want %v", p.at, got, p.linkOK)
		}
		if got := s.TorOK(p.at, 7); got != p.torOK {
			t.Fatalf("TorOK(%v) = %v, want %v", p.at, got, p.torOK)
		}
	}
	// Other elements stay healthy throughout.
	if !s.LinkOK(down, 3, 0) || !s.TorOK(down, 6) {
		t.Fatal("failure bled onto a healthy element")
	}
}

func TestSwitchDownKillsEveryAttachedLink(t *testing.T) {
	f, _ := fixture(t)
	s := NewTimeline().SwitchDown(0, 2).Compile(f)
	for tor := 0; tor < f.NumToRs; tor++ {
		if s.LinkOK(0, tor, 2) {
			t.Fatalf("link (%d, 2) healthy with switch 2 down", tor)
		}
		if !s.LinkOK(0, tor, 0) {
			t.Fatalf("link (%d, 0) unhealthy with only switch 2 down", tor)
		}
	}
}

func TestCompileClampsNegativeAndFoldsAtZero(t *testing.T) {
	f, _ := fixture(t)
	// A fault scripted before t=0 belongs to the base epoch, not a new one.
	s := NewTimeline().LinkDown(-5*sim.Microsecond, 1, 0).Compile(f)
	if s.Epochs() != 1 {
		t.Fatalf("negative-time fault produced %d epochs, want 1", s.Epochs())
	}
	if s.LinkOK(0, 1, 0) {
		t.Fatal("clamped fault not active at t=0")
	}
}

func TestCompileSameInstantInsertionOrder(t *testing.T) {
	f, _ := fixture(t)
	at := 10 * sim.Microsecond
	// Down then up at the same instant: stable sort keeps insertion order, so
	// the element ends the instant healthy; the reverse order ends it down.
	s := NewTimeline().TorDown(at, 5).TorUp(at, 5).Compile(f)
	if !s.TorOK(at, 5) {
		t.Fatal("down-then-up at one instant left the ToR down")
	}
	if s.Epochs() != 2 {
		t.Fatalf("same-instant pair made %d epochs, want 2", s.Epochs())
	}
	s = NewTimeline().TorUp(at, 5).TorDown(at, 5).Compile(f)
	if s.TorOK(at, 5) {
		t.Fatal("up-then-down at one instant left the ToR up")
	}
}

func TestCompileDoesNotMutateTimeline(t *testing.T) {
	f, _ := fixture(t)
	tl := NewTimeline().LinkDown(-3*sim.Microsecond, 2, 1).TorDown(5*sim.Microsecond, 1).TorDown(sim.Microsecond, 0)
	before := tl.Events()
	tl.Compile(f)
	after := tl.Events()
	if len(before) != len(after) {
		t.Fatal("compile changed event count")
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("compile reordered/clamped the source events: %v -> %v", before[i], after[i])
		}
	}
}

func TestFromScenarioRoundTripsAndRepairs(t *testing.T) {
	f, ps := fixture(t)
	rng := rand.New(rand.NewSource(9))
	sc := NewScenario(f).FailToRs(0.1, rng).FailLinks(0.05, rng).FailSwitches(0.3, rng)
	down, repair := 50*sim.Microsecond, 800*sim.Microsecond
	s := FromScenario(sc, down, repair).Compile(f)

	// During the outage the schedule answers exactly like the scenario...
	for tor := 0; tor < f.NumToRs; tor++ {
		if s.TorOK(down, tor) != sc.TorOK(tor) {
			t.Fatalf("ToR %d health mismatch during outage", tor)
		}
		for sw := 0; sw < f.Uplinks; sw++ {
			if s.LinkOK(down, tor, sw) != sc.LinkOK(tor, sw) {
				t.Fatalf("link (%d,%d) health mismatch during outage", tor, sw)
			}
		}
	}
	var p core.Path
	for ts := 0; ts < f.Sched.S; ts++ {
		g := ps.View(ts, 0, 1)
		for i := 0; i < g.NumPaths(); i++ {
			g.Path(i).Fill(&p)
			if s.PathOK(down, &p) != sc.PathOK(&p) {
				t.Fatal("PathOK mismatch during outage")
			}
		}
	}
	// ...before it, and after repair, everything is healthy.
	for _, at := range []sim.Time{0, down - 1, repair, sim.Second} {
		for tor := 0; tor < f.NumToRs; tor++ {
			if !s.TorOK(at, tor) {
				t.Fatalf("ToR %d down at %v, outside the outage", tor, at)
			}
			for sw := 0; sw < f.Uplinks; sw++ {
				if !s.LinkOK(at, tor, sw) {
					t.Fatalf("link (%d,%d) down at %v, outside the outage", tor, sw, at)
				}
			}
		}
	}

	// repair < 0 means permanent.
	perm := FromScenario(sc, down, -1).Compile(f)
	if perm.Epochs() != 2 {
		t.Fatalf("permanent outage compiled to %d epochs, want 2", perm.Epochs())
	}
	far := 10 * sim.Second
	healthyAll := true
	for tor := 0; tor < f.NumToRs && healthyAll; tor++ {
		healthyAll = perm.TorOK(far, tor)
		for sw := 0; sw < f.Uplinks && healthyAll; sw++ {
			healthyAll = perm.LinkOK(far, tor, sw)
		}
	}
	if healthyAll {
		t.Fatal("permanent outage healed itself")
	}
}

func TestFromScenarioDeterministicOrder(t *testing.T) {
	f, _ := fixture(t)
	// Two identical scenarios (map iteration order differs run to run) must
	// script byte-identical timelines: links are emitted sorted.
	mk := func() *Timeline {
		rng := rand.New(rand.NewSource(11))
		return FromScenario(NewScenario(f).FailLinks(0.3, rng), 0, -1)
	}
	a, b := mk().Events(), mk().Events()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestMergeKeepsBothScripts(t *testing.T) {
	f, _ := fixture(t)
	a := NewTimeline().TorDown(sim.Microsecond, 1)
	b := NewTimeline().TorDown(2*sim.Microsecond, 2)
	s := NewTimeline().Merge(a).Merge(b).Merge(nil).Compile(f)
	if s.TorOK(5*sim.Microsecond, 1) || s.TorOK(5*sim.Microsecond, 2) {
		t.Fatal("merged timeline lost an event")
	}
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Fatal("merge mutated its sources' event lists")
	}
}

func TestEventKindStrings(t *testing.T) {
	for k, want := range map[EventKind]string{
		EvTorDown: "tor-down", EvTorUp: "tor-up",
		EvLinkDown: "link-down", EvLinkUp: "link-up",
		EvSwitchDown: "switch-down", EvSwitchUp: "switch-up",
		EventKind(99): "?",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	f, _ := fixture(t)
	a := NewScenario(f)
	a.SetLinkDown(1, 1, true)
	b := a.Clone()
	b.SetTorDown(2, true)
	b.SetLinkDown(3, 0, true)
	b.SetSwitchDown(1, true)
	if !a.TorOK(2) || !a.LinkOK(3, 0) || a.LinkOK(1, 1) || !a.LinkOK(0, 1) {
		t.Fatal("mutating the clone leaked into the original")
	}
	b.SetLinkDown(1, 1, false)
	if a.LinkOK(1, 1) {
		t.Fatal("repairing the clone's link repaired the original")
	}
}
