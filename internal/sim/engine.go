// Package sim provides a deterministic discrete-event simulation engine with
// nanosecond resolution. It is the foundation of the packet-level RDCN
// simulator: every link transmission, queue drain, circuit reconfiguration,
// and transport timer is an event scheduled on an Engine.
//
// Determinism: events scheduled for the same instant fire in the order they
// were scheduled (FIFO tie-breaking via a monotonic sequence number), so a
// simulation run is reproducible bit-for-bit given the same inputs and seed.
//
// The scheduler is a hierarchical timing wheel (amortized O(1)
// schedule/pop, see wheel.go). The binary heap in heap.go is its overflow
// store for events past the wheel horizon and, in the tests, the reference
// queue the wheel is checked against op for op.
package sim

import (
	"cmp"
	"fmt"
	"slices"
)

// Time is a simulated instant in nanoseconds since the start of the run.
type Time int64

// maxTime is the RunAll horizon: later than any schedulable event.
const maxTime = Time(1<<63 - 1)

// Duration aliases for readable configuration.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String formats the time with an adaptive unit, chosen by magnitude so a
// negative time reads in the unit its absolute value would.
func (t Time) String() string {
	mag := t
	if mag < 0 {
		mag = -mag
	}
	switch {
	case mag >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case mag >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case mag >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds returns the time as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns the time as a float64 number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// event is a scheduled callback: a plain closure (fn), a pre-bound handler
// with an argument (fn1/arg), or a cancelable timer occurrence (arg holds
// the *Timer, tgen the timer generation it was scheduled under). The
// two-field form exists for the packet hot path: a port can schedule
// "deliver packet p" with a function value created once at construction
// time, so the steady-state event loop allocates nothing (a *Packet stored
// in an interface does not escape to the heap).
type event struct {
	at   Time
	seq  uint64
	tgen uint64
	fn   func()
	fn1  func(any)
	arg  any
	tag  EventTag
}

// EventTag is a pure-data description of what a scheduled closure does, so a
// checkpoint can re-encode pending events as descriptors and rebuild the
// closures on restore. Kind 0 means untagged: the event works normally but a
// checkpoint that finds one pending refuses to snapshot (it cannot promise to
// rebuild a closure it cannot name). A and B are model-defined operands
// (component ids); any richer payload (a packet) travels through the event's
// arg and is serialized by the owning layer.
type EventTag struct {
	Kind uint8
	A, B int32
}

// EventDesc is one pending event re-encoded for a checkpoint: the closure is
// gone, only its tag, firing time, and argument remain. For timer events the
// descriptor captures the full occurrence — when the queued event surfaces
// (At), the timer's current deadline, and whether it is armed — so a restore
// reproduces the lazy-deletion state machine exactly (a canceled-but-queued
// occurrence must survive so a later Reset chase-reuses it just as the
// uninterrupted run would).
type EventDesc struct {
	At  Time
	Tag EventTag
	Arg any // fn1 argument (nil for plain closures and timers)

	Timer bool
	Armed bool // timer armed flag at snapshot time
	// Reserved marks an outstanding reservation (see Reserve): the event
	// holds a place in the order at At but is not queued. A restore reserves
	// it again rather than scheduling it.
	Reserved bool
	Deadline Time // timer deadline (fires then if armed), when Timer
}

// ReservedDesc is an outstanding reservation as SnapshotEvents takes it:
// the descriptor of the event it stands for, and its place in the order.
type ReservedDesc struct {
	Desc EventDesc
	r    Reservation
}

// NumEventKinds bounds the EventTag.Kind values an engine counts apart; the
// checkpoint kind registry stays below it (netsim asserts so at compile time).
const NumEventKinds = 16

// EventKinds counts executed events by EventTag.Kind; slot 0 holds untagged
// events. The slots sum to Processed.
type EventKinds [NumEventKinds]uint64

// Total sums the slots.
func (k *EventKinds) Total() uint64 {
	var n uint64
	for _, c := range k {
		n += c
	}
	return n
}

// Add folds o into k.
func (k *EventKinds) Add(o *EventKinds) {
	for i, c := range o {
		k[i] += c
	}
}

// SchedStats exposes scheduler internals for throughput diagnostics
// (cmd/ucmpbench -schedstats).
type SchedStats struct {
	// PendingHighWater is the maximum number of queued events observed.
	PendingHighWater int
	// Cascades counts events re-distributed from a higher wheel level into
	// a lower one.
	Cascades uint64
	// OverflowPushes counts events scheduled beyond the wheel horizon into
	// the overflow heap.
	OverflowPushes uint64
	// Cancels counts Timer.Cancel calls that disarmed a live timer.
	Cancels uint64
	// DeadPops counts queued timer events discarded by lazy deletion
	// (canceled or superseded by an earlier Reset).
	DeadPops uint64
	// Chases counts timer events that surfaced before their slid deadline
	// and re-armed themselves at the new one.
	Chases uint64
}

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; a simulation is a sequential program over virtual time.
type Engine struct {
	now   Time
	seq   uint64
	wheel *timingWheel
	// deferred holds the end-of-instant calls registered by Defer, in
	// registration order; empty outside an instant that registered one.
	deferred []func()
	// processed counts events executed, exposed for tests and throughput
	// reporting. Lazily-deleted timer events do not count: no callback ran.
	processed uint64
	kinds     EventKinds
	stopped   bool
	stats     SchedStats
	// cur is the event being dispatched. It lives here rather than in Run's
	// frame so the pop-dispatch loop copies an event once, into memory whose
	// alignment is fixed: returned by value through the stack, the loop's
	// speed swung by 20% with the depth of the caller's frames. Its offset
	// (240) is pinned by TestEngineLayout.
	cur event
	// snap is SnapshotEvents' scratch, kept between snapshots. It stays
	// last: the fields above are the event loop's.
	snap []*event
}

// NewEngine returns an engine positioned at time zero.
func NewEngine() *Engine { return &Engine{wheel: newTimingWheel()} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// EventKinds returns the executed events broken down by tag kind.
func (e *Engine) EventKinds() EventKinds { return e.kinds }

// Pending returns the number of events waiting in the queue, including
// lazily-deleted timer events that have not surfaced yet.
func (e *Engine) Pending() int { return e.wheel.size }

// SchedStats returns scheduler internals accumulated since construction.
func (e *Engine) SchedStats() SchedStats {
	s := e.stats
	s.Cascades = e.wheel.cascades
	s.OverflowPushes = e.wheel.overflowPushes
	return s
}

// NextAt returns the time of the earliest pending event without removing
// it, and false when the queue is empty. Lazily-deleted timer events count:
// they still occupy the queue and bound how far the engine must run to
// drain it. The probe never mutates the queue, so the sharded coordinator
// can call it on idle domains between windows.
func (e *Engine) NextAt() (Time, bool) { return e.wheel.peekMin() }

// push inserts an event into the wheel.
func (e *Engine) push(ev event) {
	e.wheel.push(ev)
	if p := e.wheel.size; p > e.stats.PendingHighWater {
		e.stats.PendingHighWater = p
	}
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it is always a logic error in a discrete-event model.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// At1 schedules fn(arg) at absolute time t. Unlike At with a capturing
// closure, a pre-bound fn plus a pointer-typed arg schedules without
// allocating, which is what the per-packet hot path uses.
func (e *Engine) At1(t Time, fn func(any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, fn1: fn, arg: arg})
}

// After1 schedules fn(arg) d nanoseconds from now.
func (e *Engine) After1(d Time, fn func(any), arg any) { e.At1(e.now+d, fn, arg) }

// AtTag schedules fn at absolute time t with a checkpoint tag describing it.
func (e *Engine) AtTag(t Time, tag EventTag, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, fn: fn, tag: tag})
}

// At1Tag schedules fn(arg) at absolute time t with a checkpoint tag.
func (e *Engine) At1Tag(t Time, tag EventTag, fn func(any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, fn1: fn, arg: arg, tag: tag})
}

// Reservation is a place in the event order taken ahead of the event that
// may fill it: an instant and the sequence number an event scheduled there
// at Reserve time would have got. The zero Reservation has always passed.
type Reservation struct {
	at  Time
	seq uint64
}

// Desc returns the reservation as SnapshotEvents takes it, standing for an
// event with the given tag.
func (r Reservation) Desc(tag EventTag) ReservedDesc {
	return ReservedDesc{Desc: EventDesc{At: r.at, Tag: tag, Reserved: true}, r: r}
}

// Reserve takes the sequence number an event scheduled at t now would get,
// without scheduling one. An event later scheduled under the reservation
// (AtReserved) runs exactly where it would have run had it been scheduled
// now; one never scheduled costs nothing. It is for an event that is only
// needed if something happens before its instant — a port's wake-up after
// a send, which finds nothing to do unless work arrives meanwhile.
func (e *Engine) Reserve(t Time) Reservation {
	if t < e.now {
		panic(fmt.Sprintf("sim: reserving at %v before now %v", t, e.now))
	}
	e.seq++
	return Reservation{at: t, seq: e.seq}
}

// Passed reports whether the run has gone past r's place in the order: an
// event scheduled under it would already have run. Inside an event that is
// every place before the event's (at, seq); once the events of an instant
// are over — in its deferred calls, and after Run(until) returns at until —
// it is every place at or before that instant taken so far. A run stopped
// by Stop has passed only the places before the event that stopped it.
func (e *Engine) Passed(r Reservation) bool {
	return r.at < e.now || r.at == e.now && r.seq <= e.cur.seq
}

// AtReserved schedules fn, tagged, under r, and reports true; when r has
// passed it schedules nothing and reports false.
func (e *Engine) AtReserved(r Reservation, tag EventTag, fn func()) bool {
	if e.Passed(r) {
		return false
	}
	// The reserved, hence possibly not the largest, sequence number needs
	// the wheel's ordered insert.
	e.wheel.insert(event{at: r.at, seq: r.seq, fn: fn, tag: tag})
	if p := e.wheel.size; p > e.stats.PendingHighWater {
		e.stats.PendingHighWater = p
	}
	return true
}

// SnapshotEvents appends every pending event, re-encoded as an EventDesc, to
// buf in (at, seq) order — the order the events would pop in — and returns
// the extended slice. reserved lists the caller's outstanding reservations
// (Reservation.Desc), which the engine does not track: those that have not
// passed are merged into the order as Reserved descriptors, the rest
// dropped. It is a pure read: the queue is walked where it lies,
// nothing is popped or re-placed, and the continuing run, its SchedStats
// included, is exactly what it would have been without the snapshot. Dead
// timer occurrences (generation superseded by a Reset) produce no
// descriptor: on a restored engine the timers start at generation zero with
// at most one live occurrence each, and the only divergence is the DeadPops
// diagnostic counter.
//
// An untagged pending event (or timer) makes the snapshot unusable — the
// restore side could not rebuild its closure — so an error is returned; the
// engine is untouched either way.
func (e *Engine) SnapshotEvents(buf []EventDesc, reserved ...ReservedDesc) ([]EventDesc, error) {
	var err error
	if len(e.deferred) > 0 {
		// Run drains them before it returns, so only a Defer made between
		// runs gets here; a closure is nothing a descriptor can carry.
		err = fmt.Errorf("sim: %d deferred call(s) outstanding at %v cannot be checkpointed", len(e.deferred), e.now)
	}
	reserved = slices.DeleteFunc(reserved, func(d ReservedDesc) bool { return e.Passed(d.r) })
	slices.SortFunc(reserved, func(a, b ReservedDesc) int {
		if c := cmp.Compare(a.r.at, b.r.at); c != 0 {
			return c
		}
		return cmp.Compare(a.r.seq, b.r.seq)
	})
	pending := e.pendingInOrder()
	for _, ev := range pending {
		for len(reserved) > 0 && (reserved[0].r.at < ev.at || reserved[0].r.at == ev.at && reserved[0].r.seq < ev.seq) {
			buf, reserved = append(buf, reserved[0].Desc), reserved[1:]
		}
		switch {
		case ev.fn != nil, ev.fn1 != nil:
			if ev.tag.Kind == 0 && err == nil {
				err = fmt.Errorf("sim: untagged pending event at %v cannot be checkpointed", ev.at)
			}
			buf = append(buf, EventDesc{At: ev.at, Tag: ev.tag, Arg: ev.arg})
		default:
			tm := ev.arg.(*Timer)
			if ev.tgen != tm.gen {
				continue // lazily-deleted occurrence: never fires a callback
			}
			if tm.tag.Kind == 0 && err == nil {
				err = fmt.Errorf("sim: untagged pending timer at %v cannot be checkpointed", ev.at)
			}
			buf = append(buf, EventDesc{
				At: ev.at, Tag: tm.tag,
				Timer: true, Armed: tm.armed, Deadline: tm.at,
			})
		}
	}
	for _, d := range reserved {
		buf = append(buf, d.Desc)
	}
	clear(pending) // the scratch must not pin a queue array the run replaces
	e.snap = pending[:0]
	return buf, err
}

// pendingInOrder points at every queued event, lazily-deleted timer
// occurrences included, sorted by (at, seq). The pointers are into the queue
// itself and stay valid until the engine next schedules or pops.
func (e *Engine) pendingInOrder() []*event {
	evs := e.wheel.appendPending(e.snap[:0])
	slices.SortFunc(evs, func(a, b *event) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	return evs
}

// Restore positions a freshly built engine at a checkpoint's virtual time
// and executed-event counts. Pending events and reservations are replayed
// separately by the owning layers (via the tagged scheduling calls, Reserve
// and Timer.RestoreOccurrence), receiving fresh sequence numbers in recorded
// (at, seq) order — which preserves same-instant tie-breaking exactly, since
// all post-restore scheduling gets strictly higher sequence numbers, just as
// it would have in the uninterrupted run.
func (e *Engine) Restore(now Time, executed EventKinds) {
	e.now = now
	e.kinds = executed
	e.processed = executed.Total()
}

// Stop makes Run return after the current event completes (and after the
// calls it or earlier events of the instant deferred: Run never returns with
// a deferred call outstanding).
func (e *Engine) Stop() { e.stopped = true }

// Defer registers fn to run at the end of the current instant: once no
// pending event is due at or before Now, before virtual time advances and
// before Run or RunAll returns. Deferred calls run in registration order and
// count as no event. A deferred call may schedule events, at Now included —
// they run next, and the instant ends again after them — and may itself
// Defer, which appends to the drain under way. It is how a model does
// something once per instant after everything else of that instant (a ToR
// draining the instant's circuit arrivals) without paying an event for it.
func (e *Engine) Defer(fn func()) { e.deferred = append(e.deferred, fn) }

// endInstant runs the deferred calls if the instant is over: nothing pending
// is due at or before now, or the run is stopping. The queue is peeked only
// while something is deferred.
func (e *Engine) endInstant() {
	if at, ok := e.NextAt(); ok && at <= e.now && !e.stopped {
		return
	}
	if !e.stopped {
		e.passInstant()
	}
	for i := 0; i < len(e.deferred); i++ {
		fn := e.deferred[i]
		e.deferred[i] = nil
		fn()
	}
	e.deferred = e.deferred[:0]
}

// passInstant marks every place in the order taken so far at or before now
// as passed (see Passed): the instant's events are over. The dispatch slot's
// seq is what Passed compares against; its event has run already.
func (e *Engine) passInstant() { e.cur.seq = e.seq }

// dispatch runs the event's callback, reporting whether one actually ran
// (lazily-deleted timer events surface here and are discarded).
func (e *Engine) dispatch(ev *event) bool {
	kind := ev.tag.Kind
	switch {
	case ev.fn != nil:
		ev.fn()
	case ev.fn1 != nil:
		ev.fn1(ev.arg)
	default:
		tm := ev.arg.(*Timer)
		if !tm.fire(ev.tgen) {
			return false
		}
		kind = tm.tag.Kind
	}
	e.kinds[kind%NumEventKinds]++
	return true
}

// Run executes events in timestamp order until the queue is empty or the
// next event is strictly after `until`. It returns the virtual time reached:
// `until` if the horizon was hit, otherwise the time of the last event.
func (e *Engine) Run(until Time) Time {
	e.stopped = false
	if len(e.deferred) > 0 {
		e.endInstant() // deferred between runs: the instant may already be over
	}
	for e.Pending() > 0 && !e.stopped {
		if !e.wheel.popLE(until, &e.cur) {
			break
		}
		e.now = e.cur.at
		if e.dispatch(&e.cur) {
			e.processed++
		}
		if len(e.deferred) > 0 {
			e.endInstant()
		}
	}
	if !e.stopped && e.now <= until {
		e.now = until
		e.passInstant()
	}
	return e.now
}

// RunAll executes every pending event regardless of horizon. A reservation
// nothing was scheduled under does not hold it back.
func (e *Engine) RunAll() Time {
	e.stopped = false
	if len(e.deferred) > 0 {
		e.endInstant()
	}
	for e.Pending() > 0 && !e.stopped {
		if !e.wheel.popLE(maxTime, &e.cur) {
			break
		}
		e.now = e.cur.at
		if e.dispatch(&e.cur) {
			e.processed++
		}
		if len(e.deferred) > 0 {
			e.endInstant()
		}
	}
	if !e.stopped {
		e.passInstant()
	}
	return e.now
}
