package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestQueueDifferential is the pin for the timing wheel's (at, seq)
// contract: one seeded op script drives the wheel and the reference heap
// with identical pushes, limit-bounded pops and peekMin probes, and the two
// must agree on every pop, every probe and the sorted pending set. Some
// pushes carry a seq reserved earlier (Engine.Reserve), so they land behind
// events already queued at their instant, in an upper level that cascades,
// or in the overflow heap.
func TestQueueDifferential(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { queueScript(t, seed) })
	}
}

// queueScript feeds both queues what an engine feeds its wheel. Times are
// never below the engine's clock — the last pop, or the limit of a pop that
// found nothing due, where Run leaves the clock at its horizon. Pushes land
// at random near offsets, at −1/0/+1 around every level boundary and the
// horizon counted from wherever the drains left the clock, and in
// same-instant bursts; pops drain part of the queue under a limit.
func queueScript(t *testing.T, seed int64) {
	t.Helper()
	w := newTimingWheel()
	var h eventHeap
	rng := rand.New(rand.NewSource(seed))
	now := Time(0)
	var seq uint64
	push := func(at Time) {
		seq++
		ev := event{at: at, seq: seq}
		w.push(ev)
		h.push(ev)
	}
	// reserved holds places taken but not yet scheduled under; one whose
	// time the clock has passed lapses unscheduled, as in the engine.
	var reserved []event
	reserve := func(at Time) {
		seq++
		reserved = append(reserved, event{at: at, seq: seq})
	}
	var behind, upper, overflow int // where reserved schedules landed
	schedule := func() {
		reserved = slices.DeleteFunc(reserved, func(ev event) bool { return ev.at < now })
		if len(reserved) == 0 {
			return
		}
		i := rng.Intn(len(reserved))
		ev := reserved[i]
		reserved = slices.Delete(reserved, i, i+1)
		switch d := uint64(ev.at ^ w.cur); {
		case d >= 1<<horizonBits:
			overflow++
		case d >= l0Slots:
			upper++
		default:
			if tail := w.slots0[int(uint64(ev.at))&l0Mask].tail; tail >= 0 && w.nodes[tail].ev.seq > ev.seq {
				behind++
			}
		}
		w.insert(ev)
		h.push(ev)
	}
	probe := func(op int) {
		t.Helper()
		wa, wok := w.peekMin()
		var ha Time
		hok := len(h) > 0
		if hok {
			ha = h[0].at
		}
		if wa != ha || wok != hok || w.size != len(h) {
			t.Fatalf("op %d: wheel peekMin %d,%v size %d; heap %d,%v size %d", op, wa, wok, w.size, ha, hok, len(h))
		}
	}
	pop := func(op int, limit Time) bool {
		t.Helper()
		var we event
		wok := w.popLE(limit, &we)
		hok := len(h) > 0 && h[0].at <= limit
		if wok != hok {
			t.Fatalf("op %d: popLE(%d): wheel %v, heap %v", op, limit, wok, hok)
		}
		if !hok {
			now = max(now, limit)
			return false
		}
		he := h.pop()
		if we.at != he.at || we.seq != he.seq {
			t.Fatalf("op %d: popLE(%d): wheel (%d, %d), heap (%d, %d)", op, limit, we.at, we.seq, he.at, he.seq)
		}
		now = he.at
		return true
	}
	samePending := func(op int) {
		t.Helper()
		byAtSeq := func(a, b *event) int {
			if c := cmp.Compare(a.at, b.at); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		}
		got := w.appendPending(nil)
		slices.SortFunc(got, byAtSeq)
		want := make([]*event, len(h))
		for i := range h {
			want[i] = &h[i]
		}
		slices.SortFunc(want, byAtSeq)
		if len(got) != len(want) {
			t.Fatalf("op %d: wheel holds %d events, heap %d", op, len(got), len(want))
		}
		for i := range got {
			if got[i].at != want[i].at || got[i].seq != want[i].seq {
				t.Fatalf("op %d: pending[%d]: wheel (%d, %d), heap (%d, %d)", op, i, got[i].at, got[i].seq, want[i].at, want[i].seq)
			}
		}
	}

	boundaries := []Time{1 << l0Bits, 1 << (l0Bits + wheelBits), 1 << (l0Bits + 2*wheelBits), 1 << horizonBits}
	limitAhead := func() Time {
		switch r := rng.Intn(10); {
		case r < 5:
			return Time(rng.Int63n(2 * l0Slots))
		case r < 8:
			return boundaries[rng.Intn(len(boundaries))] + Time(rng.Intn(3)) - 1
		default:
			return Time(rng.Int63n(1 << (horizonBits + 1)))
		}
	}
	for op := 0; op < 3000; op++ {
		switch r := rng.Intn(20); {
		case r < 6: // near future, level 0 or just past it
			push(now + Time(rng.Int63n(3*l0Slots)))
		case r < 9: // −1, 0 or +1 around a level boundary or the horizon
			push(now + boundaries[rng.Intn(len(boundaries))] + Time(rng.Intn(3)) - 1)
		case r < 10: // anywhere up to twice the horizon
			push(now + Time(rng.Int63n(1<<(horizonBits+1))))
		case r < 12: // a same-instant burst
			at := now + Time(rng.Int63n(1<<(l0Bits+2*wheelBits)))
			for k := 2 + rng.Intn(4); k > 0; k-- {
				push(at)
			}
		case r < 13: // a reservation, then (sometimes) later events at its instant
			var at Time
			switch rng.Intn(3) {
			case 0:
				at = now + Time(rng.Int63n(l0Slots))
			case 1:
				at = now + boundaries[rng.Intn(len(boundaries)-1)] + Time(rng.Intn(3)) - 1
			default:
				at = now + 1<<horizonBits + Time(rng.Int63n(l0Slots))
			}
			reserve(at)
			for k := rng.Intn(3); k > 0; k-- {
				push(at)
			}
		case r < 14: // schedule under an earlier reservation
			schedule()
		case r < 18: // a partial drain under a limit
			limit := now + limitAhead()
			for k := rng.Intn(8); k > 0 && pop(op, limit); k-- {
			}
		default:
			samePending(op)
		}
		probe(op)
	}
	for pop(-1, maxTime) {
	}
	probe(-1)
	if w.cascades == 0 || w.overflowPushes == 0 {
		t.Fatalf("script too tame: %d cascades, %d overflow pushes", w.cascades, w.overflowPushes)
	}
	if behind == 0 || upper == 0 || overflow == 0 {
		t.Fatalf("script too tame: reserved schedules %d behind later seqs at level 0, %d at upper levels, %d into overflow",
			behind, upper, overflow)
	}
}

// firingCheck is the direct self-check of an engine-level script: every
// callback calls fired, which requires the dispatched event to follow the
// previous one in (at, seq) order — time, then the order it was scheduled
// in — and the clock to read its time.
type firingCheck struct {
	t       *testing.T
	e       *Engine
	at      Time
	seq     uint64
	started bool
}

func (c *firingCheck) fired() {
	c.t.Helper()
	cur := c.e.cur
	if c.e.Now() != cur.at {
		c.t.Fatalf("event at %d dispatched with the clock at %d", cur.at, c.e.Now())
	}
	if c.started && (cur.at < c.at || cur.at == c.at && cur.seq <= c.seq) {
		c.t.Fatalf("event (%d, seq %d) fired after (%d, seq %d)", cur.at, cur.seq, c.at, c.seq)
	}
	c.at, c.seq, c.started = cur.at, cur.seq, true
}

// TestDifferentialWheelHeap drives the engine with a randomized event
// script — same-instant bursts, nested scheduling, far-future events past
// the wheel horizon, end-of-instant calls, and timer create/reset/cancel
// churn — and checks it directly: events fire in (at, seq) order, deferred
// calls after their instant's events, and Run(until) leaves no event or
// armed timer due at or before until. The queue underneath is pinned op for
// op against the heap by TestQueueDifferential.
func TestDifferentialWheelHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runScript(t, seed) })
	}
}

// runScript replays a deterministic pseudo-random workload on an engine and
// fails on the first firing-order or due-event violation.
func runScript(t *testing.T, seed int64) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(seed))
	chk := &firingCheck{t: t, e: e}
	due := map[int]Time{} // scheduled plain events not yet fired
	id := 0
	plain := func(at Time, then func()) {
		id++
		my := id
		due[my] = at
		e.At(at, func() {
			chk.fired()
			delete(due, my)
			if then != nil {
				then()
			}
		})
	}

	var timers []*Timer
	var schedule func(depth int)
	schedule = func(depth int) {
		switch rng.Intn(10) {
		case 0: // far-future event, beyond the wheel horizon (+ up to ~8s)
			plain(e.Now()+Time(rng.Int63n(8*int64(Second))), nil)
		case 1, 2: // cancelable timer
			at := e.Now() + Time(rng.Int63n(int64(Millisecond)))
			timers = append(timers, e.AtCancelable(at, chk.fired))
		case 3: // same-instant burst
			for j := 0; j < 1+rng.Intn(4); j++ {
				plain(e.Now()+Time(rng.Int63n(1000)), nil)
			}
		default: // near-future event, possibly nesting more work
			plain(e.Now()+Time(rng.Int63n(100*int64(Microsecond))), func() {
				if depth > 0 && rng.Intn(3) == 0 {
					schedule(depth - 1)
				}
				// An end-of-instant call: nothing of its instant may be
				// left due when it runs.
				if rng.Intn(4) == 0 {
					at := e.Now()
					e.Defer(func() {
						if next, ok := e.NextAt(); ok && next <= at {
							t.Fatalf("deferred call at %v ran with an event due at %v", at, next)
						}
					})
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
	nothingDue := func(until Time) {
		t.Helper()
		for id, at := range due {
			if at <= until {
				t.Fatalf("event %d due at %v still pending after Run(%v)", id, at, until)
			}
		}
		for _, tm := range timers {
			if tm.Armed() && tm.When() <= until {
				t.Fatalf("timer due at %v still armed after Run(%v)", tm.When(), until)
			}
		}
	}
	// Drain in segments so horizon probes (popLE bounded by `until`) are
	// exercised, then finish with RunAll to flush the far-future overflow.
	horizon := Time(0)
	for seg := 0; seg < 8; seg++ {
		horizon += Time(rng.Int63n(int64(Millisecond)))
		if got := e.Run(horizon); got != horizon {
			t.Fatalf("Run(%v) reached %v", horizon, got)
		}
		nothingDue(horizon)
	}
	e.RunAll()
	nothingDue(maxTime)
	if e.Pending() != 0 || len(due) != 0 {
		t.Fatalf("RunAll left %d pending, %d unfired", e.Pending(), len(due))
	}
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

// TestReservedInsertAfterMigration: an overflow window migrates into the
// wheel in seq order, so a slot it fills stays seq-sorted and an event
// scheduled under an older reservation finds its place by walking back from
// the tail. Placed in (at, seq) order instead, the slot would hold B (seq 9)
// ahead of A (seq 5), and the reserved event (seq 7) at B's instant would
// land behind B.
func TestReservedInsertAfterMigration(t *testing.T) {
	w := newTimingWheel()
	var h eventHeap
	x0 := Time(1<<horizonBits + 3*l0Slots)
	x, y := x0+2*l0Slots+10, x0+2*l0Slots+20 // one level-1 slot once x0 is the cursor's
	for _, ev := range []event{{at: x0, seq: 1}, {at: y, seq: 5}, {at: x, seq: 9}} {
		w.push(ev)
		h.push(ev)
	}
	var got event
	if !w.popLE(x0, &got) || got.seq != h.pop().seq {
		t.Fatalf("first pop (%d, %d), want the migrated head", got.at, got.seq)
	}
	reserved := event{at: x, seq: 7}
	w.insert(reserved)
	h.push(reserved)
	for len(h) > 0 {
		want := h.pop()
		if !w.popLE(maxTime, &got) || got.at != want.at || got.seq != want.seq {
			t.Fatalf("wheel popped (%d, %d), heap (%d, %d)", got.at, got.seq, want.at, want.seq)
		}
	}
}
