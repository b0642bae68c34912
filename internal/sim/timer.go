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
type Timer struct {
	eng    *Engine
	fn     func()
	tag    EventTag // checkpoint identity; Kind 0 blocks snapshots while queued
	armed  bool     // fn will run at `at` unless canceled or reset
	queued bool     // a live-generation occurrence is outstanding

	gen      uint64 // bumped to lazily invalidate the queued event
	at       Time   // current deadline, meaningful while armed
	queuedAt Time   // when the live-generation queued event surfaces
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

// Armed reports whether the timer currently has a deadline set.
func (tm *Timer) Armed() bool { return tm.armed }

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
	tm.at = at
	tm.armed = true
	if tm.queued {
		if at >= tm.queuedAt {
			return // the queued occurrence will chase the moved deadline
		}
		tm.gen++ // lazy-delete the queued later event
	}
	e.seq++
	e.push(event{at: at, seq: e.seq, tgen: tm.gen, arg: tm})
	tm.queued, tm.queuedAt = true, at
}

// Cancel disarms the timer; the queued event, if any, is lazily discarded.
// Canceling an unarmed timer is a no-op. The timer stays reusable: a later
// Reset re-arms it.
func (tm *Timer) Cancel() {
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
