package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestWheelBoundaryFuzz stresses the timing wheel exactly where placement
// changes shape: offsets on and adjacent to every level boundary (4096 ns,
// 2^20 ns, 2^28 ns) and the 2^36 ns ≈ 69 s horizon (overflow-heap parking
// and migration), scheduled from randomized cursor positions, mixed with
// same-instant bursts. The script knows every pending event, so it checks
// the engine directly: firing order is (at, seq) order, every NextAt probe
// names the earliest pending time — which pins the non-mutating peekMin
// across cascade/migration states — and every partial drain leaves nothing
// due at or before its horizon.
func TestWheelBoundaryFuzz(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runBoundaryScript(t, seed) })
	}
}

// runBoundaryScript schedules boundary-straddling batches from varied
// cursor offsets and drains with interleaved horizon probes.
func runBoundaryScript(t *testing.T, seed int64) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(seed))
	chk := &firingCheck{t: t, e: e}
	due := map[int]Time{}
	id := 0
	sched := func(at Time) {
		if at < e.Now() {
			return
		}
		id++
		my := id
		due[my] = at
		e.At(at, func() {
			chk.fired()
			delete(due, my)
		})
	}
	probe := func() {
		t.Helper()
		want, wantOK := maxTime, false
		for _, at := range due {
			want, wantOK = min(want, at), true
		}
		if got, ok := e.NextAt(); ok != wantOK || ok && got != want {
			t.Fatalf("NextAt = %v,%v; earliest pending is %v,%v", got, ok, want, wantOK)
		}
	}

	boundaries := []Time{
		1 << l0Bits,                 // level 0 -> 1
		1 << (l0Bits + wheelBits),   // level 1 -> 2
		1 << (l0Bits + 2*wheelBits), // level 2 -> 3
		1 << horizonBits,            // wheel horizon -> overflow heap
	}
	for round := 0; round < 25; round++ {
		// Park the cursor at an arbitrary sub-slot offset before inserting.
		e.Run(e.Now() + Time(rng.Int63n(int64(Millisecond))))
		now := e.Now()
		for _, b := range boundaries {
			for _, d := range []Time{-1, 0, 1} {
				sched(now + b + d)
			}
		}
		// Same-instant burst straddling a random boundary.
		at := now + boundaries[rng.Intn(len(boundaries))] + Time(rng.Int63n(3)) - 1
		for j := 0; j < 3; j++ {
			sched(at)
		}
		// A few unstructured events to vary slot occupancy.
		for j := 0; j < 4; j++ {
			sched(now + Time(rng.Int63n(int64(2*Second))))
		}
		probe()
		// Partial drains exercise limit-bounded cascades and migrations.
		if round%3 == 2 {
			until := e.Now() + boundaries[rng.Intn(len(boundaries))] + Time(rng.Int63n(5)) - 2
			e.Run(until)
			for id, at := range due {
				if at <= until {
					t.Fatalf("event %d due at %v still pending after Run(%v)", id, at, until)
				}
			}
			probe()
		}
	}
	e.RunAll()
	if e.Pending() != 0 || len(due) != 0 {
		t.Fatalf("RunAll left %d pending, %d unfired", e.Pending(), len(due))
	}
	if st := e.SchedStats(); st.Cascades == 0 || st.OverflowPushes == 0 {
		t.Fatalf("script too tame: %+v", st)
	}
}

// TestWheelPeekMinExact pins peekMin against a draining oracle in targeted
// shapes: min in level 0, min only reachable through an upper-level slot
// walk (same slot, different times), and min in the overflow heap.
func TestWheelPeekMinExact(t *testing.T) {
	e := NewEngine()
	check := func(want Time) {
		t.Helper()
		got, ok := e.NextAt()
		if !ok || got != want {
			t.Fatalf("NextAt = %v,%v, want %v", got, ok, want)
		}
	}
	// Level 0.
	e.At(5, func() {})
	check(5)
	// Upper level: two events in the same level-1 slot; the later scheduled
	// earlier, so the slot list head is not the minimum.
	e2 := NewEngine()
	e2.At(1<<l0Bits+900, func() {})
	e2.At(1<<l0Bits+100, func() {})
	if got, ok := e2.NextAt(); !ok || got != 1<<l0Bits+100 {
		t.Fatalf("upper-level NextAt = %v,%v, want %v", got, ok, Time(1<<l0Bits+100))
	}
	// Overflow only.
	e3 := NewEngine()
	far := Time(1)<<horizonBits + 12345
	e3.At(far, func() {})
	if got, ok := e3.NextAt(); !ok || got != far {
		t.Fatalf("overflow NextAt = %v,%v, want %v", got, ok, far)
	}
	// Empty.
	e4 := NewEngine()
	if _, ok := e4.NextAt(); ok {
		t.Fatal("NextAt on empty engine reported an event")
	}
	// peekMin must not mutate: draining after the probe still fires in order.
	var got []Time
	e2.At(3, func() { got = append(got, e2.Now()) })
	e2.RunAll()
	if e2.Processed() != 3 {
		t.Fatalf("processed %d, want 3", e2.Processed())
	}
}
