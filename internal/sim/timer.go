package sim

// Timer is a cancelable, resettable one-shot timer bound to an Engine.
// Allocate one per long-lived deadline (a flow's RTO, a pacer's next send)
// and Reset it as the deadline moves: steady-state rearming neither
// allocates nor eagerly removes anything from the scheduler.
//
// Cancellation contract (lazy deletion): Cancel and Reset never remove the
// queued engine event. A stale occurrence is discarded when it surfaces —
// its generation no longer matches (an earlier Reset superseded it) or the
// timer is disarmed. A deadline that only moved later keeps its single
// queued event, which "chases" the deadline when it surfaces: it re-arms
// itself at the current deadline instead of firing. A timer therefore has
// at most one live-generation event queued at any time, and Reset sequences
// that only push the deadline out (TCP RTO on every ACK) enqueue nothing.
//
// Lazy arm: ResetLazy arms the timer for a deadline at which its callback
// will have nothing to do unless something happens first. The occurrence
// Reset would queue only reserves its place in the event order
// (Engine.Reserve); Wake, called when that something happens, queues it
// there. Never woken, it comes to nothing: once its place has passed the
// timer reads as having fired.
type Timer struct {
	eng    *Engine
	fn     func()
	tag    EventTag // checkpoint identity; Kind 0 blocks snapshots while queued
	armed  bool     // fn will run at `at` unless canceled or reset
	queued bool     // a live-generation occurrence is outstanding

	gen      uint64 // bumped to lazily invalidate the queued event
	at       Time   // current deadline, meaningful while armed
	queuedAt Time   // when the live-generation queued event surfaces
	// rseq is nonzero while the outstanding occurrence is a reservation
	// (queuedAt, rseq) rather than a queued event. The bools above sit in
	// the tag's padding, so the timer stays 64 bytes with it.
	rseq uint64
}

// NewTimer returns an unarmed timer that runs fn when it fires. The
// callback is fixed for the timer's lifetime; arm it with Reset.
func (e *Engine) NewTimer(fn func()) *Timer { return &Timer{eng: e, fn: fn} }

// NewTimerTag returns an unarmed timer carrying a checkpoint tag, so a
// snapshot taken while an occurrence is queued can name it.
func (e *Engine) NewTimerTag(tag EventTag, fn func()) *Timer {
	return &Timer{eng: e, fn: fn, tag: tag}
}

// RestoreOccurrence re-queues the timer's checkpointed occurrence on a
// freshly built engine: the event surfaces at queuedAt, the deadline is
// `deadline`, and the armed flag is restored as recorded — a canceled-but-
// queued occurrence comes back exactly as it was, so a later Reset
// chase-reuses it with the same relative ordering as the uninterrupted run.
// Must be called at most once per timer, in the checkpoint's event order.
func (tm *Timer) RestoreOccurrence(queuedAt, deadline Time, armed bool) {
	e := tm.eng
	tm.at = deadline
	tm.armed = armed
	tm.queued, tm.queuedAt = true, queuedAt
	e.seq++
	e.push(event{at: queuedAt, seq: e.seq, tgen: tm.gen, arg: tm})
}

// RestoreReservation is RestoreOccurrence for an occurrence the checkpoint
// recorded as a reservation (EventDesc.Reserved): its place is reserved
// again, and nothing is queued.
func (tm *Timer) RestoreReservation(queuedAt, deadline Time, armed bool) {
	tm.at = deadline
	tm.armed = armed
	tm.queued, tm.queuedAt = true, queuedAt
	tm.rseq = tm.eng.Reserve(queuedAt).seq
}

// Reserved returns the timer's outstanding reserved occurrence, for
// SnapshotEvents' reserved list, and false when it has none that has not
// passed.
func (tm *Timer) Reserved() (ReservedDesc, bool) {
	if tm.rseq == 0 || tm.eng.Passed(tm.reservation()) {
		return ReservedDesc{}, false
	}
	return ReservedDesc{
		Desc: EventDesc{At: tm.queuedAt, Tag: tm.tag, Timer: true, Armed: tm.armed, Reserved: true, Deadline: tm.at},
		r:    tm.reservation(),
	}, true
}

// reservation returns the outstanding occurrence's place; meaningful while
// rseq is nonzero.
func (tm *Timer) reservation() Reservation { return Reservation{at: tm.queuedAt, seq: tm.rseq} }

// lapse settles a reserved occurrence whose place has passed unscheduled: it
// would have fired with nothing to do (or, disarmed, been discarded), so
// the timer is left as either would have left it.
func (tm *Timer) lapse() {
	if tm.rseq != 0 && tm.eng.Passed(tm.reservation()) {
		tm.rseq = 0
		tm.armed, tm.queued = false, false
	}
}

// AtCancelable schedules fn at absolute time t and returns the controlling
// Timer. Equivalent to NewTimer followed by Reset(t).
func (e *Engine) AtCancelable(t Time, fn func()) *Timer {
	tm := e.NewTimer(fn)
	tm.Reset(t)
	return tm
}

// Armed reports whether the timer currently has a deadline set. A lazily
// armed timer never woken reads false once its place has passed.
func (tm *Timer) Armed() bool {
	return tm.armed && (tm.rseq == 0 || !tm.eng.Passed(tm.reservation()))
}

// When returns the current deadline; meaningful only while Armed.
func (tm *Timer) When() Time { return tm.at }

// Reset arms (or re-arms) the timer to fire at absolute time at. Resetting
// to a later deadline reuses the queued event; resetting earlier lazily
// invalidates it and queues a new one.
func (tm *Timer) Reset(at Time) {
	e := tm.eng
	if at < e.now {
		panic("sim: Timer.Reset before now")
	}
	tm.lapse()
	tm.at = at
	tm.armed = true
	if tm.queued {
		if at >= tm.queuedAt {
			// The outstanding occurrence will chase the moved deadline; one
			// only reserved is queued in its place for that.
			tm.Wake()
			return
		}
		tm.gen++ // lazy-delete the queued later event
		tm.rseq = 0
	}
	e.seq++
	e.push(event{at: at, seq: e.seq, tgen: tm.gen, arg: tm})
	tm.queued, tm.queuedAt = true, at
}

// ResetLazy arms the timer for at like Reset, for a deadline at which the
// callback will find nothing to do unless Wake is called first. Where Reset
// would queue a new occurrence, ResetLazy only reserves its place; where an
// occurrence is outstanding at or before at, that one will fire or chase,
// and ResetLazy is Reset.
func (tm *Timer) ResetLazy(at Time) {
	e := tm.eng
	if at < e.now {
		panic("sim: Timer.ResetLazy before now")
	}
	tm.lapse()
	if tm.queued && at >= tm.queuedAt {
		tm.Reset(at)
		return
	}
	if tm.queued {
		tm.gen++ // the earlier deadline supersedes the outstanding occurrence
	}
	tm.at, tm.armed = at, true
	tm.queued, tm.queuedAt = true, at
	tm.rseq = e.Reserve(at).seq
}

// Wake queues the timer's reserved occurrence in its place, unless that
// place has passed: something happened its callback has to see. It is a
// no-op on a timer with no reserved occurrence.
func (tm *Timer) Wake() {
	if tm.rseq != 0 {
		tm.wake()
	}
}

func (tm *Timer) wake() {
	r := tm.reservation()
	tm.rseq = 0
	if tm.eng.Passed(r) {
		tm.armed, tm.queued = false, false
		return
	}
	tm.eng.pushReserved(event{at: r.at, seq: r.seq, tgen: tm.gen, arg: tm})
}

// Cancel disarms the timer; the queued event, if any, is lazily discarded.
// Canceling an unarmed timer is a no-op. The timer stays reusable: a later
// Reset re-arms it.
func (tm *Timer) Cancel() {
	tm.lapse()
	if tm.armed {
		tm.armed = false
		tm.eng.stats.Cancels++
	}
}

// fire handles a surfaced timer event scheduled under generation gen. It
// reports whether the callback ran.
func (tm *Timer) fire(gen uint64) bool {
	e := tm.eng
	if gen != tm.gen || !tm.armed {
		if gen == tm.gen {
			tm.queued = false
		}
		e.stats.DeadPops++
		return false
	}
	if e.now < tm.at {
		// The deadline slid later since this occurrence was queued: chase.
		e.stats.Chases++
		e.seq++
		e.push(event{at: tm.at, seq: e.seq, tgen: tm.gen, arg: tm})
		tm.queuedAt = tm.at
		return false
	}
	tm.armed, tm.queued = false, false
	tm.fn()
	return true
}
