package sim

import (
	"slices"
	"testing"
	"unsafe"
)

// An event scheduled under a reservation runs where it would have run had it
// been scheduled when the reservation was taken: after the events scheduled
// at its instant before that, before the ones scheduled after.
func TestReservedEventRunsInItsPlace(t *testing.T) {
	e := NewEngine()
	var trace []string
	note := func(s string) func() { return func() { trace = append(trace, s) } }
	e.At(100, note("before"))
	r := e.Reserve(100)
	e.At(100, note("after"))
	e.At(50, func() {
		if !e.AtReserved(r, EventTag{}, note("reserved")) {
			t.Error("AtReserved refused a place not yet passed")
		}
	})
	e.RunAll()
	if want := []string{"before", "reserved", "after"}; !slices.Equal(trace, want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
	if e.Processed() != 4 {
		t.Fatalf("processed %d, want 4", e.Processed())
	}
}

// Passed is exact at the reserved instant: inside an event it is the event's
// (at, seq); in a deferred call and after Run(until) stops at the instant,
// the instant is over; in a sharded domain, a window's end is a Run(until).
func TestReservationPassed(t *testing.T) {
	t.Run("same-instant events", func(t *testing.T) {
		e := NewEngine()
		var r Reservation
		var got []bool
		check := func() { got = append(got, e.Passed(r)) }
		e.At(100, check) // scheduled before the reservation
		e.At(10, func() {
			r = e.Reserve(100)
			e.At(100, check) // after it
		})
		e.RunAll()
		if want := []bool{false, true}; !slices.Equal(got, want) {
			t.Fatalf("Passed %v, want %v", got, want)
		}
	})
	t.Run("deferred call", func(t *testing.T) {
		e := NewEngine()
		var r Reservation
		passed, ran := false, false
		e.At(100, func() {
			e.Defer(func() { passed, ran = e.Passed(r), true })
		})
		e.At(10, func() { r = e.Reserve(100) })
		e.RunAll()
		if !ran || !passed {
			t.Fatalf("deferred call ran %v, saw Passed %v; want true, true", ran, passed)
		}
	})
	t.Run("run until the instant", func(t *testing.T) {
		e := NewEngine()
		var r Reservation
		e.At(10, func() { r = e.Reserve(100) })
		e.At(100, func() {})
		e.Run(99)
		if e.Passed(r) {
			t.Fatal("passed before its instant")
		}
		e.Run(100)
		if !e.Passed(r) || e.AtReserved(r, EventTag{}, func() { t.Error("ran a passed reservation") }) {
			t.Fatal("not passed once Run(until) reached its instant")
		}
		e.RunAll()
	})
	t.Run("stopped mid-instant", func(t *testing.T) {
		e := NewEngine()
		var r Reservation
		e.At(10, func() { r = e.Reserve(100) })
		e.At(100, e.Stop) // scheduled before the reservation
		e.Run(200)
		if e.Now() != 100 || e.Passed(r) {
			t.Fatalf("stopped at %v with Passed %v; want 100, false", e.Now(), e.Passed(r))
		}
	})
	t.Run("sharded windows", func(t *testing.T) {
		s := NewShardedEngine(2, 2, 20)
		d0 := s.Domain(0)
		var r Reservation
		var got []bool
		d0.At(10, func() { r = d0.Reserve(100) })
		// Drained into domain 0 in a later window: its seq follows the
		// reservation's, so the place has passed when it runs.
		s.Domain(1).At(70, func() {
			s.Send(1, 0, 100, func(any) { got = append(got, d0.Passed(r)) }, nil)
		})
		d0.At(95, func() { got = append(got, d0.Passed(r)) })
		s.Run(500)
		if want := []bool{false, true}; !slices.Equal(got, want) {
			t.Fatalf("Passed %v, want %v", got, want)
		}
		if !d0.Passed(r) {
			t.Fatal("not passed after the run")
		}
	})
}

// The zero Reservation has always passed, so a port that never reserved can
// wake unconditionally.
func TestZeroReservationPassed(t *testing.T) {
	e := NewEngine()
	if !e.Passed(Reservation{}) || e.AtReserved(Reservation{}, EventTag{}, func() {}) || e.Pending() != 0 {
		t.Fatal("the zero Reservation scheduled something")
	}
}

// A lazily armed timer woken before its instant fires in the place Reset
// would have queued it in.
func TestTimerLazyArmWoken(t *testing.T) {
	e := NewEngine()
	var trace []string
	tm := e.NewTimer(func() { trace = append(trace, "timer") })
	e.At(100, func() { trace = append(trace, "before") })
	e.At(10, func() {
		tm.ResetLazy(100)
		e.At(100, func() { trace = append(trace, "after") })
	})
	e.At(50, tm.Wake)
	e.RunAll()
	if want := []string{"before", "timer", "after"}; !slices.Equal(trace, want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
	if tm.Armed() {
		t.Fatal("armed after firing")
	}
}

// A lazily armed timer never woken runs nothing and reads as fired once its
// place has passed — seen from the events of its instant, from a deferred
// call, and after Run(until) stops at the instant.
func TestTimerLazyArmLapses(t *testing.T) {
	setup := func() (*Engine, *Timer) {
		e := NewEngine()
		tm := e.NewTimer(func() { panic("lazily armed timer fired unwoken") })
		return e, tm
	}
	t.Run("same-instant events", func(t *testing.T) {
		e, tm := setup()
		var got []bool
		check := func() { got = append(got, tm.Armed()) }
		e.At(100, check)
		e.At(10, func() {
			tm.ResetLazy(100)
			e.At(100, check)
		})
		e.RunAll()
		if want := []bool{true, false}; !slices.Equal(got, want) {
			t.Fatalf("Armed %v, want %v", got, want)
		}
		if e.Processed() != 3 {
			t.Fatalf("processed %d, want the 3 plain events", e.Processed())
		}
	})
	t.Run("deferred call", func(t *testing.T) {
		e, tm := setup()
		armed, ran := true, false
		e.At(10, func() { tm.ResetLazy(100) })
		e.At(100, func() { e.Defer(func() { armed, ran = tm.Armed(), true }) })
		e.RunAll()
		if !ran || armed {
			t.Fatalf("deferred call ran %v, saw Armed %v; want true, false", ran, armed)
		}
	})
	t.Run("run until the instant", func(t *testing.T) {
		e, tm := setup()
		e.At(10, func() { tm.ResetLazy(100) })
		e.Run(99)
		if !tm.Armed() || tm.When() != 100 {
			t.Fatalf("Armed %v When %v before the instant; want true, 100", tm.Armed(), tm.When())
		}
		e.Run(100)
		if tm.Armed() {
			t.Fatal("armed once Run(until) reached the instant")
		}
		tm.Wake() // too late: nothing is queued
		if e.Pending() != 0 {
			t.Fatalf("a lapsed occurrence was queued: %d pending", e.Pending())
		}
		// The timer is reusable, as after a fire.
		fired := false
		tm.fn = func() { fired = true }
		tm.Reset(150)
		e.RunAll()
		if !fired || e.Now() != 150 {
			t.Fatalf("re-armed timer fired %v at %v; want true at 150", fired, e.Now())
		}
	})
}

// An earlier Reset supersedes a lazy arm: the timer fires once, at the
// earlier deadline, and a later Wake queues nothing. A later Reset keeps the
// reserved occurrence and chases from it, as it would a queued one.
func TestTimerLazyArmReset(t *testing.T) {
	t.Run("earlier", func(t *testing.T) {
		e := NewEngine()
		var fired []Time
		tm := e.NewTimer(func() { fired = append(fired, e.Now()) })
		e.At(10, func() { tm.ResetLazy(100) })
		e.At(20, func() { tm.Reset(60) })
		e.At(30, tm.Wake)
		e.RunAll()
		if !slices.Equal(fired, []Time{60}) || e.Processed() != 4 {
			t.Fatalf("fired at %v, %d events; want [60], 4", fired, e.Processed())
		}
	})
	t.Run("later", func(t *testing.T) {
		eager, lazy := NewEngine(), NewEngine()
		trace := func(e *Engine, arm func(*Timer)) []string {
			var out []string
			tm := e.NewTimer(func() { out = append(out, "timer") })
			e.At(10, func() { arm(tm) })
			e.At(20, func() { tm.Reset(200) })
			e.At(100, func() { e.At(200, func() { out = append(out, "ev200") }) })
			e.RunAll()
			return out
		}
		want := trace(eager, func(tm *Timer) { tm.Reset(100) })
		got := trace(lazy, func(tm *Timer) { tm.ResetLazy(100) })
		if !slices.Equal(got, want) || lazy.SchedStats().Chases != 1 {
			t.Fatalf("lazy %v (%d chases), eager %v", got, lazy.SchedStats().Chases, want)
		}
	})
}

// TestReservationLayout pins the sizes the reservation machinery had to fit
// in: a queue node's back link sits in its padding, and so does a timer's
// reservation once its flags share the tag's padding. One byte more on
// either moves every run's allocation.
func TestReservationLayout(t *testing.T) {
	if n, tm, d := unsafe.Sizeof(wnode{}), unsafe.Sizeof(Timer{}), unsafe.Sizeof(EventDesc{}); n != 80 || tm != 64 || d != 56 {
		t.Fatalf("wnode %d, Timer %d, EventDesc %d bytes; want 80, 64, 56", n, tm, d)
	}
}
