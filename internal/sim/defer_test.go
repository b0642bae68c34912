package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// Deferred calls run after every event of their instant — also those
// scheduled, at that instant, after the Defer — in registration order, before
// the first event of a later instant, and are no events.
func TestDeferRunsAtEndOfInstant(t *testing.T) { t.Run("wheel", testDeferRunsAtEndOfInstant) }

func testDeferRunsAtEndOfInstant(t *testing.T) {
	e := NewEngine()
	var got []string
	log := func(s string) func() { return func() { got = append(got, fmt.Sprintf("%s@%d", s, e.Now())) } }
	e.At(10, func() {
		log("a")()
		e.Defer(log("d1"))
		e.At(10, log("late")) // zero delay: still this instant
	})
	e.At(10, func() {
		log("b")()
		e.Defer(log("d2"))
	})
	e.At(11, log("c"))
	e.RunAll()
	want := []string{"a@10", "b@10", "late@10", "d1@10", "d2@10", "c@11"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	if e.Processed() != 4 {
		t.Fatalf("processed %d, want the 4 events: a deferred call is no event", e.Processed())
	}
}

// A deferred call sees the instant it was registered in, not the horizon or
// the next event's time, and runs before Run returns when the horizon cuts
// in right after its instant — at the horizon itself included.
func TestDeferBeforeTimeAdvances(t *testing.T) { t.Run("wheel", testDeferBeforeTimeAdvances) }

func testDeferBeforeTimeAdvances(t *testing.T) {
	e := NewEngine()
	var at []Time
	note := func() { at = append(at, e.Now()) }
	e.At(10, func() { e.Defer(note) })
	e.At(500, func() { e.Defer(note) })
	if end := e.Run(100); end != 100 {
		t.Fatalf("Run(100) reached %v", end)
	}
	if !reflect.DeepEqual(at, []Time{10}) {
		t.Fatalf("after Run(100) the deferred calls ran at %v, want [10]", at)
	}
	// The second event sits exactly on the horizon.
	if end := e.Run(500); end != 500 {
		t.Fatalf("Run(500) reached %v", end)
	}
	if !reflect.DeepEqual(at, []Time{10, 500}) {
		t.Fatalf("after Run(500) the deferred calls ran at %v, want [10 500]", at)
	}
}

// A deferred call may schedule at Now: the event runs next, within the
// instant, and a Defer it makes ends the instant a second time.
func TestDeferMayScheduleAtNow(t *testing.T) { t.Run("wheel", testDeferMayScheduleAtNow) }

func testDeferMayScheduleAtNow(t *testing.T) {
	e := NewEngine()
	var got []string
	e.At(7, func() {
		e.Defer(func() {
			got = append(got, "drain1")
			e.At(e.Now(), func() {
				got = append(got, "again")
				e.Defer(func() { got = append(got, "drain2") })
			})
		})
	})
	e.At(8, func() { got = append(got, "next") })
	e.RunAll()
	want := []string{"drain1", "again", "drain2", "next"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

// Defer inside a deferred call is defined: it joins the drain under way,
// after the calls registered before it.
func TestDeferNested(t *testing.T) { t.Run("wheel", testDeferNested) }

func testDeferNested(t *testing.T) {
	e := NewEngine()
	var got []string
	e.At(3, func() {
		e.Defer(func() {
			got = append(got, "outer")
			e.Defer(func() { got = append(got, "inner@"+e.Now().String()) })
		})
		e.Defer(func() { got = append(got, "sibling") })
	})
	e.At(4, func() { got = append(got, "next") })
	e.RunAll()
	want := []string{"outer", "sibling", "inner@3ns", "next"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

// Stop ends the run after the current event, and the calls deferred so far
// run before Run returns — even with an event of the same instant left
// pending: Run never returns with a deferred call outstanding.
func TestDeferAfterStop(t *testing.T) { t.Run("wheel", testDeferAfterStop) }

func testDeferAfterStop(t *testing.T) {
	e := NewEngine()
	var got []string
	e.At(5, func() {
		e.Defer(func() { got = append(got, "deferred") })
		e.Stop()
	})
	e.At(5, func() { got = append(got, "second") })
	e.Run(100)
	if !reflect.DeepEqual(got, []string{"deferred"}) || e.Now() != 5 || e.Pending() != 1 {
		t.Fatalf("after Stop: ran %v at %v with %d pending; want the deferred call alone, at 5, 1 pending", got, e.Now(), e.Pending())
	}
	e.Run(100)
	if !reflect.DeepEqual(got, []string{"deferred", "second"}) {
		t.Fatalf("resumed run: %v", got)
	}
}

// A call deferred between runs belongs to the instant the engine stands at:
// it runs when the next Run finds that instant over, or after the events
// still due in it.
func TestDeferBetweenRuns(t *testing.T) { t.Run("wheel", testDeferBetweenRuns) }

func testDeferBetweenRuns(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Defer(func() { got = append(got, "idle") })
	e.RunAll() // nothing pending at all
	e.At(20, func() { got = append(got, "ev") })
	e.Run(20)
	e.At(20, func() { got = append(got, "same") })
	e.Defer(func() { got = append(got, "after-same") })
	e.At(30, func() { got = append(got, "later") })
	e.RunAll()
	want := []string{"idle", "ev", "same", "after-same", "later"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

// Under the sharded engine a domain's deferred calls run at the end of the
// domain's instant, after the cross-domain arrivals merged into it.
func TestDeferSharded(t *testing.T) {
	s := NewShardedEngine(2, 2, 100)
	e := s.Domain(1)
	var got []string
	armed := false
	recv := func(a any) {
		got = append(got, a.(string))
		if !armed {
			armed = true
			e.Defer(func() {
				armed = false
				got = append(got, fmt.Sprintf("drain@%d", e.Now()))
			})
		}
	}
	// Domain 0 sends two arrivals for instant 300 from different windows;
	// domain 1 has a local event there too, scheduled first.
	e.At(300, func() { got = append(got, "local") })
	e.At(301, func() { got = append(got, "next") })
	s.Domain(0).At(50, func() { s.Send(0, 1, 300, recv, "x1") })
	s.Domain(0).At(120, func() { s.Send(0, 1, 300, recv, "x2") })
	s.Run(1000)
	want := []string{"local", "x1", "x2", "drain@300", "next"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

// A snapshot cannot carry a closure: one taken with a deferred call
// outstanding (only a Defer between runs leaves one) is refused.
func TestDeferRefusesSnapshot(t *testing.T) {
	e := NewEngine()
	e.Defer(func() {})
	if _, err := e.SnapshotEvents(nil); err == nil {
		t.Fatal("snapshot with a deferred call outstanding was accepted")
	}
	e.RunAll()
	if _, err := e.SnapshotEvents(nil); err != nil {
		t.Fatalf("snapshot after the drain: %v", err)
	}
}
