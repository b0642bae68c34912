package sim

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// ShardedEngine is a conservative parallel discrete-event engine: a fixed
// set of Engine domains advanced concurrently in bulk-synchronous windows.
// The caller partitions the model so that every event either stays inside
// one domain (scheduled on that domain's Engine as usual) or crosses
// domains with at least `window` nanoseconds of lookahead, in which case it
// goes through Send and a per-(src,dst) mailbox.
//
// Domains are grouped onto workers: worker w statically owns the contiguous
// block [w·D/W, (w+1)·D/W) and claims its domains through an atomic cursor,
// so idle workers steal leftover domains from other blocks inside the same
// window. Which worker runs a domain never affects the outcome — domain
// execution within a window is independent and the merge order below is a
// total order — so stealing keeps determinism for free.
//
// One window executes [W, W+window) where W is the global next-event time,
// so idle stretches are skipped in one step. Within the window every domain
// runs its own events on its own timing wheel with no synchronization;
// cross-domain sends are buffered. At the barrier the buffered sends are
// merged into the destination wheels in (at, born, src, seq) order — a
// total order independent of worker count and scheduling, which makes a
// sharded run bit-for-bit reproducible and, for models whose same-instant
// cross-domain events are ordered the same way serially (see DESIGN.md
// §10), identical to the serial engine.
//
// Windows adapt: when a window executes events but buffers no cross-domain
// send, the workers extend it by another `window` nanoseconds without
// returning to the coordinator — one barrier per extension instead of a
// full coordinator round (next-event scan, publish, merge decision). The
// decision is taken inside the barrier by the last arriving worker (the
// barrier "fold"), so every participant observes the same verdict and the
// extension is deterministic.
//
// Safety argument: an event executing at te ∈ [W, W+window) can only
// schedule cross-domain work at te+window or later, which is ≥ W+window —
// strictly after the window every domain is concurrently executing. So no
// domain can receive a cross-domain event for the window it is currently
// running, and merging at the barrier preserves timestamp order. Each
// extension re-applies the same argument to [lim+1, lim+window]: a send
// from the extension round lands strictly after it, and a round that sends
// stops further extension, so no executed frontier ever passes a buffered
// event.
type ShardedEngine struct {
	doms    []*Engine
	window  Time
	workers int

	// out[src][dst] buffers cross-domain events produced by domain src for
	// domain dst during the current window. Only the worker running src
	// touches it during the run phase; only the worker merging dst drains it
	// during the merge phase (phases are barrier-separated).
	out     [][][]xevent
	scratch [][]xevent // per-dst merge buffer, reused across windows
	seqs    []uint64   // per-src cross-send sequence (monotonic over the run)

	// Per-domain send bookkeeping for the window just run: how many events
	// the domain emitted and the earliest timestamp among them. The
	// coordinator folds these into pendingCross/crossMin between windows.
	sent    []uint64
	minSent []Time

	// Static domain blocks and claim cursors: worker w owns domains
	// [base[w], base[w+1]); cur[w] is the block's claim cursor, reset inside
	// barrier folds (or by the coordinator while workers are parked).
	base  []int
	cur   []padCursor
	steal bool

	// Published by the coordinator before barrier A, read by workers after.
	lim       Time
	maxLim    Time // extension ceiling: min(until, next global - 1)
	needMerge bool
	exit      bool

	// Sub-round flags: set by workers during a run round, consumed and reset
	// by the extension fold with every other participant parked at the
	// barrier.
	roundSent atomic.Uint32
	roundRan  atomic.Uint32
	extend    bool // fold verdict, read by all participants after release

	bar barrier

	// Coordinator-only state.
	pendingCross uint64
	crossMin     Time
	running      bool
	globalNow    Time
	globals      []globalEvent
	gseq         uint64

	// Per-worker stats slots (one per worker to avoid write sharing on the
	// hot path; folded into the totals by Stats).
	mergeBatches []uint64
	mergeHW      []int
	steals       []uint64

	stats ShardStats
}

// padCursor is a cache-line padded atomic claim cursor (one per worker
// block); padding keeps concurrent claims from false-sharing.
type padCursor struct {
	next atomic.Int64
	_    [56]byte
}

// serialMergeMax is the mailbox batch size up to which the coordinator
// merges alone between windows (workers stay parked, saving a barrier);
// larger batches use the parallel merge phase.
const serialMergeMax = 256

// xevent is one cross-domain event in a mailbox. born is the sender's
// virtual time at Send; together with (src, seq) it extends the timestamp
// into the total merge order.
type xevent struct {
	at   Time
	born Time
	src  int32
	seq  uint64
	fn1  func(any)
	arg  any
	tag  EventTag
}

// globalEvent is a coordinator-run callback (see Global).
type globalEvent struct {
	at  Time
	seq uint64
	fn  func()
}

// ShardStats exposes the parallel engine's internals for throughput
// diagnostics (cmd/ucmpbench -schedstats with -shards). All fields except
// Steals are deterministic for a given model; Steals depends on runtime
// scheduling.
type ShardStats struct {
	// Windows is the number of bulk-synchronous windows executed.
	Windows uint64
	// Barriers counts barrier crossings: two per window (publish + run),
	// plus one per extension round, plus one when a parallel merge ran.
	Barriers uint64
	// Extensions counts adaptive window extensions (run rounds executed
	// beyond the first without a coordinator round).
	Extensions uint64
	// CrossEvents counts events routed through the mailboxes.
	CrossEvents uint64
	// MergeBatches counts non-empty per-destination merge batches.
	MergeBatches uint64
	// SerialMerges counts windows whose mailbox batch was small enough for
	// the coordinator to merge alone (no parallel merge phase or barrier).
	SerialMerges uint64
	// MailboxHighWater is the largest single merge batch observed.
	MailboxHighWater int
	// Steals counts domains run by a worker outside its static block. Not
	// deterministic — it reflects OS scheduling, not the model.
	Steals uint64
}

// NewShardedEngine builds a parallel engine with `domains` independent
// Engine instances (each backed by the given queue kind), run by `workers`
// goroutines (clamped to [1, domains]) in windows of `window` nanoseconds.
// The window must be a lower bound on the latency of every cross-domain
// event: Send panics when violated.
func NewShardedEngine(domains, workers int, window Time, kind QueueKind) *ShardedEngine {
	if domains < 1 {
		panic("sim: sharded engine needs at least one domain")
	}
	if window < 1 {
		panic("sim: sharded window must be at least 1ns")
	}
	if workers < 1 {
		workers = 1
	}
	if workers > domains {
		workers = domains
	}
	s := &ShardedEngine{
		doms:         make([]*Engine, domains),
		window:       window,
		workers:      workers,
		out:          make([][][]xevent, domains),
		scratch:      make([][]xevent, domains),
		seqs:         make([]uint64, domains),
		sent:         make([]uint64, domains),
		minSent:      make([]Time, domains),
		base:         make([]int, workers+1),
		cur:          make([]padCursor, workers),
		steal:        true,
		crossMin:     maxTime,
		mergeBatches: make([]uint64, workers),
		mergeHW:      make([]int, workers),
		steals:       make([]uint64, workers),
	}
	for i := range s.doms {
		s.doms[i] = NewEngineQueue(kind)
		s.out[i] = make([][]xevent, domains)
	}
	for w := 0; w <= workers; w++ {
		s.base[w] = w * domains / workers
	}
	s.bar.init(workers)
	return s
}

// Domains returns the number of domains.
func (s *ShardedEngine) Domains() int { return len(s.doms) }

// Domain returns domain i's Engine. Before Run (model construction) it may
// be used freely; during Run only events executing inside domain i may
// touch it.
func (s *ShardedEngine) Domain(i int) *Engine { return s.doms[i] }

// Window returns the lookahead window in nanoseconds.
func (s *ShardedEngine) Window() Time { return s.window }

// Workers returns the number of worker goroutines Run uses.
func (s *ShardedEngine) Workers() int { return s.workers }

// SetStealing toggles cross-block work stealing (on by default). With it
// off, each worker runs exactly its static block — useful to isolate
// stealing in benchmarks; results are identical either way.
func (s *ShardedEngine) SetStealing(on bool) { s.steal = on }

// Send schedules fn(arg) at absolute time `at` in domain dst, from an event
// currently executing in domain src. It must satisfy the lookahead
// contract: at >= src's current time + window.
func (s *ShardedEngine) Send(src, dst int, at Time, fn func(any), arg any) {
	s.SendTag(src, dst, at, EventTag{}, fn, arg)
}

// SendTag is Send with a checkpoint tag: the tag rides the mailbox and lands
// on the destination-engine event at merge time, so a snapshot taken after
// the merge can name it.
func (s *ShardedEngine) SendTag(src, dst int, at Time, tag EventTag, fn func(any), arg any) {
	d := s.doms[src]
	if at < d.now+s.window {
		panic(fmt.Sprintf("sim: cross-domain send at %v violates lookahead (now %v + window %v)",
			at, d.now, s.window))
	}
	s.seqs[src]++
	s.out[src][dst] = append(s.out[src][dst], xevent{
		at: at, born: d.now, src: int32(src), seq: s.seqs[src], fn1: fn, arg: arg, tag: tag,
	})
	s.sent[src]++
	if at < s.minSent[src] {
		s.minSent[src] = at
	}
}

// FlushMailboxes merges every buffered cross-domain event into its
// destination engine immediately. Only valid from a Global callback (all
// workers parked). The flush is exactly the merge the next window would have
// performed: between a global and the next window's merge decision no domain
// runs and nothing else assigns destination-engine sequence numbers, so the
// batch, its canonical (at, born, src, seq) order, and the sequence numbers
// the destination engines hand out are identical either way — which is what
// lets a checkpoint global drain the mailboxes and snapshot per-domain
// queues without perturbing the run.
func (s *ShardedEngine) FlushMailboxes() {
	if s.pendingCross == 0 {
		return
	}
	s.stats.CrossEvents += s.pendingCross
	s.mergeRange(0, 0, len(s.doms))
	s.stats.SerialMerges++
	s.pendingCross = 0
	s.crossMin = maxTime
}

// RestoreGlobalNow positions a freshly built sharded engine's coordinator
// clock at a checkpoint's instant, so re-armed globals (sampling, further
// checkpoints) pass the not-before-now check.
func (s *ShardedEngine) RestoreGlobalNow(t Time) { s.globalNow = t }

// Global schedules fn at absolute time `at` on the coordinator, outside any
// domain. Global callbacks run between windows with every worker parked at
// the barrier, so they may read (and carefully write) cross-domain state —
// the harness uses them for fabric-wide sampling. Windows never straddle a
// global's timestamp, and adaptive extension never crosses one. Global may
// be called before Run or from within a global callback, not from domain
// events.
func (s *ShardedEngine) Global(at Time, fn func()) {
	if at < s.globalNow {
		panic(fmt.Sprintf("sim: scheduling global event at %v before now %v", at, s.globalNow))
	}
	s.gseq++
	s.globals = append(s.globals, globalEvent{at: at, seq: s.gseq, fn: fn})
}

// GlobalNow returns the coordinator's virtual time: the timestamp of the
// running global callback, or the horizon reached by the last Run.
func (s *ShardedEngine) GlobalNow() Time { return s.globalNow }

// Processed sums the events executed across all domains.
func (s *ShardedEngine) Processed() uint64 {
	var n uint64
	for _, d := range s.doms {
		n += d.processed
	}
	return n
}

// EventKinds sums the per-kind executed-event counts across all domains.
func (s *ShardedEngine) EventKinds() EventKinds {
	var out EventKinds
	for _, d := range s.doms {
		out.Add(&d.kinds)
	}
	return out
}

// SchedStats aggregates per-domain scheduler internals: counters sum, the
// pending high-water mark takes the max.
func (s *ShardedEngine) SchedStats() SchedStats {
	var out SchedStats
	for _, d := range s.doms {
		st := d.SchedStats()
		if st.PendingHighWater > out.PendingHighWater {
			out.PendingHighWater = st.PendingHighWater
		}
		out.Cascades += st.Cascades
		out.OverflowPushes += st.OverflowPushes
		out.Cancels += st.Cancels
		out.DeadPops += st.DeadPops
		out.Chases += st.Chases
	}
	return out
}

// Stats returns the parallel-engine counters accumulated so far.
func (s *ShardedEngine) Stats() ShardStats {
	out := s.stats
	for w := 0; w < s.workers; w++ {
		out.MergeBatches += s.mergeBatches[w]
		out.Steals += s.steals[w]
		if s.mergeHW[w] > out.MailboxHighWater {
			out.MailboxHighWater = s.mergeHW[w]
		}
	}
	return out
}

// nextEventTime is the earliest pending timestamp across domains and
// unmerged mailboxes.
func (s *ShardedEngine) nextEventTime() (Time, bool) {
	t := s.crossMin
	for _, d := range s.doms {
		if at, ok := d.NextAt(); ok && at < t {
			t = at
		}
	}
	return t, t != maxTime
}

// popGlobal removes and returns the earliest global event.
func (s *ShardedEngine) popGlobal() globalEvent {
	best := 0
	for i := 1; i < len(s.globals); i++ {
		g, b := s.globals[i], s.globals[best]
		if g.at < b.at || (g.at == b.at && g.seq < b.seq) {
			best = i
		}
	}
	g := s.globals[best]
	s.globals = append(s.globals[:best], s.globals[best+1:]...)
	return g
}

// minGlobalAt returns the earliest scheduled global timestamp.
func (s *ShardedEngine) minGlobalAt() (Time, bool) {
	if len(s.globals) == 0 {
		return 0, false
	}
	t := s.globals[0].at
	for _, g := range s.globals[1:] {
		if g.at < t {
			t = g.at
		}
	}
	return t, true
}

// resetCursors rewinds every block's claim cursor. Callers must hold the
// quiescence the barrier provides: either inside a fold or with all other
// participants parked.
func (s *ShardedEngine) resetCursors() {
	for w := range s.cur {
		s.cur[w].next.Store(0)
	}
}

// Run executes events across all domains until every pending event
// (domain-local, mailbox, and global) is later than `until`, then advances
// every domain to `until`. The coordinator (the calling goroutine) is
// worker 0; workers-1 additional goroutines are spawned per Run and joined
// before it returns.
func (s *ShardedEngine) Run(until Time) Time {
	if s.running {
		panic("sim: ShardedEngine.Run re-entered")
	}
	s.running = true
	defer func() { s.running = false }()

	// Participants enter each Run with fresh sense flags; the barrier's
	// shared state must match or a leftover sense from a previous Run lets
	// an early arrival fall through.
	s.bar.reset()

	var wg sync.WaitGroup
	for w := 1; w < s.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pprof.Do(context.Background(), pprof.Labels("shard-worker", strconv.Itoa(w)), func(context.Context) {
				s.workerLoop(w)
			})
		}(w)
	}

	coordSense := uint32(0)
	for {
		t, ok := s.nextEventTime()
		// Fire globals that precede the next domain event; workers are
		// parked at barrier A, so a global has exclusive access.
		for {
			g, gok := s.minGlobalAt()
			if !gok || g > until || (ok && g > t) {
				break
			}
			ev := s.popGlobal()
			s.globalNow = ev.at
			ev.fn()
			t, ok = s.nextEventTime() // the callback may have scheduled work
		}
		if !ok || t > until {
			break
		}
		maxLim := until
		if g, gok := s.minGlobalAt(); gok && g-1 < maxLim {
			maxLim = g - 1 // never straddle a global's timestamp
		}
		lim := t + s.window - 1
		if lim > maxLim {
			lim = maxLim
		}
		s.lim = lim
		s.maxLim = maxLim
		s.stats.Windows++
		s.stats.Barriers += 2
		s.needMerge = false
		if s.pendingCross > 0 {
			s.stats.CrossEvents += s.pendingCross
			if s.pendingCross <= serialMergeMax || s.workers == 1 {
				// Small batch: merge here with the workers parked — no
				// dedicated merge phase, no extra barrier.
				s.mergeRange(0, 0, len(s.doms))
				s.stats.SerialMerges++
			} else {
				s.needMerge = true
				s.stats.Barriers++
			}
			s.pendingCross = 0
			s.crossMin = maxTime
		}
		s.resetCursors()             // workers are parked at A; quiescent
		s.bar.wait(&coordSense, nil) // A: window published
		if s.needMerge {
			s.mergeClaim(0)
			s.bar.wait(&coordSense, s.resetCursors) // B: mailboxes drained
		}
		s.runPhase(0, &coordSense)
		for d := range s.doms {
			s.pendingCross += s.sent[d]
			if s.minSent[d] < s.crossMin {
				s.crossMin = s.minSent[d]
			}
		}
	}
	// Horizon: advance every domain to until (matching Engine.Run) and
	// release the workers. Mailbox events beyond the horizon stay buffered
	// for a later Run.
	for _, d := range s.doms {
		d.Run(until)
	}
	s.exit = true
	s.bar.wait(&coordSense, nil)
	wg.Wait()
	s.exit = false
	s.globalNow = until
	return until
}

// workerLoop is the body of workers 1..N-1; the coordinator inlines the
// same phase sequence inside Run.
func (s *ShardedEngine) workerLoop(w int) {
	sense := uint32(0)
	for {
		s.bar.wait(&sense, nil) // A
		if s.exit {
			return
		}
		if s.needMerge {
			s.mergeClaim(w)
			s.bar.wait(&sense, s.resetCursors) // B
		}
		s.runPhase(w, &sense)
	}
}

// runPhase executes the published window, then keeps extending it while
// the extension fold says to: each round runs [lim_prev+1, lim] across all
// domains, meets at the barrier, and the last arriver decides — inside the
// barrier, so every participant sees the same verdict — whether another
// `window` nanoseconds can run without a coordinator round. The final
// round's barrier doubles as the old barrier C.
func (s *ShardedEngine) runPhase(w int, sense *uint32) {
	for {
		ran, sentAny := s.runClaim(w)
		if ran {
			s.roundRan.Store(1)
		}
		if sentAny {
			s.roundSent.Store(1)
		}
		s.bar.wait(sense, s.extendFold)
		if !s.extend {
			return
		}
	}
}

// extendFold runs inside the run-round barrier (all other participants
// parked): it consumes the round flags, rewinds the claim cursors, and
// decides whether to extend. Extension requires the round to have executed
// events (otherwise the coordinator's next-event scan skips idle time in
// one step) and buffered no cross-domain send (a send must merge before
// any domain passes its timestamp).
func (s *ShardedEngine) extendFold() {
	sent := s.roundSent.Load() != 0
	ran := s.roundRan.Load() != 0
	s.roundSent.Store(0)
	s.roundRan.Store(0)
	s.resetCursors()
	if !sent && ran && s.lim < s.maxLim {
		lim := s.lim + s.window
		if lim > s.maxLim {
			lim = s.maxLim
		}
		s.lim = lim
		s.extend = true
		s.stats.Extensions++
		s.stats.Barriers++
		return
	}
	s.extend = false
}

// runClaim runs the current round in every domain worker w claims: its own
// static block first, then (with stealing on) leftovers from other blocks.
// It reports whether any claimed domain executed events and whether any
// buffered a cross-domain send.
func (s *ShardedEngine) runClaim(w int) (ran, sentAny bool) {
	lim := s.lim
	blocks := s.workers
	if !s.steal {
		blocks = 1
	}
	var stole uint64
	for v := 0; v < blocks; v++ {
		vw := w + v
		if vw >= s.workers {
			vw -= s.workers
		}
		base, end := s.base[vw], s.base[vw+1]
		for {
			d := base + int(s.cur[vw].next.Add(1)) - 1
			if d >= end {
				break
			}
			if vw != w {
				stole++
			}
			dom := s.doms[d]
			s.sent[d] = 0
			s.minSent[d] = maxTime
			before := dom.processed
			dom.Run(lim)
			if dom.processed != before {
				ran = true
			}
			if s.sent[d] > 0 {
				sentAny = true
			}
		}
	}
	if stole > 0 {
		s.steals[w] += stole
	}
	return ran, sentAny
}

// mergeClaim drains destination mailboxes in the parallel merge phase,
// claiming destinations the same way runClaim claims domains.
func (s *ShardedEngine) mergeClaim(w int) {
	blocks := s.workers
	if !s.steal {
		blocks = 1
	}
	for v := 0; v < blocks; v++ {
		vw := w + v
		if vw >= s.workers {
			vw -= s.workers
		}
		base, end := s.base[vw], s.base[vw+1]
		for {
			dst := base + int(s.cur[vw].next.Add(1)) - 1
			if dst >= end {
				break
			}
			s.mergeRange(w, dst, dst+1)
		}
	}
}

// mergeRange drains the mailboxes of destinations [lo, hi) into their
// wheels, in (at, born, src, seq) order, crediting worker w's stats slots.
func (s *ShardedEngine) mergeRange(w, lo, hi int) {
	nd := len(s.doms)
	for dst := lo; dst < hi; dst++ {
		buf := s.scratch[dst][:0]
		for src := 0; src < nd; src++ {
			if q := s.out[src][dst]; len(q) > 0 {
				buf = append(buf, q...)
				s.out[src][dst] = q[:0]
			}
		}
		if len(buf) == 0 {
			continue
		}
		sortXevents(buf)
		e := s.doms[dst]
		for i := range buf {
			e.At1Tag(buf[i].at, buf[i].tag, buf[i].fn1, buf[i].arg)
			buf[i] = xevent{} // don't pin fn/arg until the next merge
		}
		s.mergeBatches[w]++
		if len(buf) > s.mergeHW[w] {
			s.mergeHW[w] = len(buf)
		}
		s.scratch[dst] = buf[:0]
	}
}

func xeventLess(a, b *xevent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.born != b.born {
		return a.born < b.born
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// sortXevents orders a merge batch: insertion sort for the common tiny
// batches, sort.Slice beyond.
func sortXevents(buf []xevent) {
	if len(buf) <= 24 {
		for i := 1; i < len(buf); i++ {
			for j := i; j > 0 && xeventLess(&buf[j], &buf[j-1]); j-- {
				buf[j], buf[j-1] = buf[j-1], buf[j]
			}
		}
		return
	}
	sort.Slice(buf, func(i, j int) bool { return xeventLess(&buf[i], &buf[j]) })
}

// barrier is a sense-reversing centralized barrier over atomics. Arrivals
// spin briefly, then yield — on a machine with fewer cores than workers a
// pure spin would starve the worker the barrier is waiting for. The
// happens-before chain (arrival Add, release Store, waiter Load) makes
// plain fields written before a wait visible to every worker after it.
//
// wait optionally takes a fold: the last participant to arrive runs it
// before releasing the others. Everything the fold writes is visible to
// every participant after release, and the fold runs with all other
// participants parked — a serialization point in the middle of a parallel
// phase, used for the adaptive-extension verdict and cursor rewinds.
type barrier struct {
	n     int32
	count atomic.Int32
	sense atomic.Uint32
	spin  int
}

func (b *barrier) init(n int) {
	b.n = int32(n)
	b.spin = 10000
	if runtime.GOMAXPROCS(0) < n {
		b.spin = 0
	}
}

// reset restores the no-arrivals state. Only valid with no participant
// inside wait (Run calls it before spawning workers).
func (b *barrier) reset() {
	b.count.Store(0)
	b.sense.Store(0)
}

// wait blocks until all n participants arrive, running fold (when non-nil)
// on the last arriver before release. sense is the caller's
// per-participant flag, flipped on every crossing.
func (b *barrier) wait(sense *uint32, fold func()) {
	if b.n == 1 {
		if fold != nil {
			fold()
		}
		return
	}
	ns := *sense ^ 1
	*sense = ns
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		if fold != nil {
			fold()
		}
		b.sense.Store(ns)
		return
	}
	for i := 0; b.sense.Load() != ns; i++ {
		if i >= b.spin {
			runtime.Gosched()
		}
	}
}
