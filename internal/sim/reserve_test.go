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

// TestReservationLayout pins the sizes the reservation machinery had to fit
// in: a queue node's back link sits in its padding, and a timer's flags
// share its tag's. One byte more on either moves every run's allocation.
func TestReservationLayout(t *testing.T) {
	if n, tm, d := unsafe.Sizeof(wnode{}), unsafe.Sizeof(Timer{}), unsafe.Sizeof(EventDesc{}); n != 80 || tm != 56 || d != 56 {
		t.Fatalf("wnode %d, Timer %d, EventDesc %d bytes; want 80, 56, 56", n, tm, d)
	}
}
