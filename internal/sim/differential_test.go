package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestDifferentialWheelHeap drives the wheel and the reference heap with an
// identical randomized event script — same-instant bursts, nested
// scheduling, far-future events past the wheel horizon, and timer
// create/reset/cancel churn — and requires byte-identical firing traces and
// engine state at a sequence of Run horizons. This is the package-level pin
// for the (at, seq) equivalence contract; internal/harness runs the same
// comparison over full simulations.
func TestDifferentialWheelHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			wheelTrace := runScript(t, QueueWheel, seed)
			heapTrace := runScript(t, QueueHeap, seed)
			if len(wheelTrace) != len(heapTrace) {
				t.Fatalf("trace lengths differ: wheel=%d heap=%d", len(wheelTrace), len(heapTrace))
			}
			for i := range wheelTrace {
				if wheelTrace[i] != heapTrace[i] {
					t.Fatalf("traces diverge at %d:\n  wheel: %s\n  heap:  %s",
						i, wheelTrace[i], heapTrace[i])
				}
			}
		})
	}
}

// runScript replays a deterministic pseudo-random workload on an engine of
// the given kind and returns the observable trace.
func runScript(t *testing.T, kind QueueKind, seed int64) []string {
	t.Helper()
	e := NewEngineQueue(kind)
	rng := rand.New(rand.NewSource(seed))
	var trace []string
	id := 0

	var timers []*Timer
	var schedule func(depth int)
	schedule = func(depth int) {
		id++
		myID := id
		switch rng.Intn(10) {
		case 0: // far-future event, beyond the wheel horizon (+ up to ~8s)
			at := e.Now() + Time(rng.Int63n(8*int64(Second)))
			e.At(at, func() { trace = append(trace, fmt.Sprintf("far %d @%d", myID, e.Now())) })
		case 1, 2: // cancelable timer
			at := e.Now() + Time(rng.Int63n(int64(Millisecond)))
			tm := e.AtCancelable(at, func() {
				trace = append(trace, fmt.Sprintf("timer %d @%d", myID, e.Now()))
			})
			timers = append(timers, tm)
		case 3: // same-instant burst
			for j := 0; j < 1+rng.Intn(4); j++ {
				id++
				burstID := id
				at := e.Now() + Time(rng.Int63n(1000))
				e.At(at, func() { trace = append(trace, fmt.Sprintf("burst %d @%d", burstID, e.Now())) })
			}
		default: // near-future event, possibly nesting more work
			at := e.Now() + Time(rng.Int63n(100*int64(Microsecond)))
			e.At(at, func() {
				trace = append(trace, fmt.Sprintf("ev %d @%d", myID, e.Now()))
				if depth > 0 && rng.Intn(3) == 0 {
					schedule(depth - 1)
				}
				// An end-of-instant call: it must land after the instant's
				// other events (bursts share instants) on both queues.
				if rng.Intn(4) == 0 {
					e.Defer(func() { trace = append(trace, fmt.Sprintf("defer %d @%d", myID, e.Now())) })
				}
				// Churn a random live timer from inside the run.
				if len(timers) > 0 {
					tm := timers[rng.Intn(len(timers))]
					switch rng.Intn(3) {
					case 0:
						tm.Cancel()
					case 1:
						tm.Reset(e.Now() + Time(rng.Int63n(int64(Millisecond))))
					case 2:
						tm.Reset(e.Now() + Time(rng.Int63n(int64(Microsecond))))
					}
				}
			})
		}
	}

	for i := 0; i < 300; i++ {
		schedule(3)
	}
	// Drain in segments so horizon probes (popLE bounded by `until`) are
	// exercised, then finish with RunAll to flush the far-future overflow.
	horizon := Time(0)
	for seg := 0; seg < 8; seg++ {
		horizon += Time(rng.Int63n(int64(Millisecond)))
		e.Run(horizon)
		trace = append(trace, fmt.Sprintf("seg now=%d pending=%d processed=%d",
			e.Now(), e.Pending(), e.Processed()))
	}
	e.RunAll()
	trace = append(trace, fmt.Sprintf("end now=%d pending=%d processed=%d",
		e.Now(), e.Pending(), e.Processed()))
	return trace
}

// TestOverflowSameTimeSeqOrder pins the trickiest wheel case: an event that
// sat in the overflow heap and one inserted directly after migration, at the
// same instant, must still fire in seq order.
func TestOverflowSameTimeSeqOrder(t *testing.T) {
	e := NewEngine()
	far := 6 * Second // beyond the 2^32 ns wheel horizon
	var got []int
	e.At(far, func() { got = append(got, 1) }) // via overflow heap
	e.At(1, func() {
		// Runs at t=1; far is still in overflow. Schedule a second event at
		// the same far instant — it also lands in overflow, after the first.
		e.At(far, func() { got = append(got, 2) })
	})
	e.RunAll()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got=%v, want [1 2]", got)
	}
	if e.Now() != far {
		t.Fatalf("now=%v, want %v", e.Now(), far)
	}
}

// TestWheelZeroAllocSteadyState verifies that steady-state scheduling on the
// wheel — pre-bound fn1 events and timer resets at stable depths — does not
// allocate once the node arena has warmed up.
func TestWheelZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	var pump func(any)
	pump = func(arg any) {
		if e.Now() < Millisecond {
			e.At1(e.Now()+100, pump, arg)
		}
	}
	tm := e.NewTimer(func() {})
	// Warm up the arena.
	e.At1(0, pump, &struct{}{})
	e.Run(100 * Microsecond)
	allocs := testing.AllocsPerRun(100, func() {
		tm.Reset(e.Now() + 500)
		e.Run(e.Now() + 100)
	})
	if allocs != 0 {
		t.Fatalf("steady-state scheduling allocates %v per run, want 0", allocs)
	}
}
