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
// goes through Send and a mailbox.
//
// Worker w owns the contiguous block of domains [w·D/W, (w+1)·D/W) for the
// whole run: a domain's wheel and the model state hanging off it stay on one
// core. One window executes [T, T+window) where T is the global next-event
// time, so idle stretches are skipped in one step. A window is one loop per
// worker — for each owned domain, drain its inbox (what the previous window
// sent it) into its wheel in (at, born, src, seq) order, then run it to the
// window's limit — between two barriers: window published, window done. The
// drain order is a total order independent of worker count and scheduling,
// which makes a sharded run bit-for-bit reproducible and, for models whose
// same-instant cross-domain events are ordered the same way serially (see
// DESIGN.md §10), identical to the serial engine.
//
// Safety argument: an event executing at te ∈ [T, T+window) can only send
// cross-domain work for te+window or later, which is ≥ T+window — strictly
// after the window every domain is concurrently executing, so a send never
// has to reach a domain inside the window that produced it. It waits in a
// mailbox until the next window, whose first act in the destination is to
// drain it; the next window starts no earlier than this one's limit + 1, so
// no domain has run past a buffered event when it lands.
type ShardedEngine struct {
	doms    []*Engine
	window  Time
	workers int
	owner   []int32 // owner[d] is the worker that runs domain d

	// box[parity][worker][dst] buffers the cross-domain events worker's
	// domains produced for domain dst. Sends append to parity fill; a window
	// drains the other parity, which the previous window filled. The barriers
	// separate every list's filling from its draining, and within a window a
	// list is touched by one worker only: the sender's owner fills, the
	// destination's owner drains.
	box  [2][][][]xevent
	fill int
	seqs []uint64 // per-src cross-send sequence (monotonic over the run)
	ws   []workerState

	// Published by the coordinator before the first barrier of a window.
	lim  Time
	exit bool

	bar barrier

	// Coordinator-only state.
	pendingCross uint64
	crossMin     Time
	running      bool
	globalNow    Time
	globals      []globalEvent
	gseq         uint64

	stats ShardStats
}

// workerState is what one worker writes while a window runs, padded to two
// cache lines so no two workers share one. sent/minSent describe the window just
// run (the coordinator folds them into pendingCross/crossMin after the
// second barrier); the merge fields accumulate over the run.
type workerState struct {
	sent         uint64
	minSent      Time
	scratch      []xevent // drain buffer, reused across domains and windows
	mergeBatches uint64
	mergeHW      int
	_            [72]byte
}

// xevent is one cross-domain event in a mailbox. born is the sender's
// virtual time at Send; together with (src, seq) it extends the timestamp
// into the total drain order.
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
// diagnostics (cmd/ucmpbench -schedstats with -shards). Every field is a
// function of the model alone — worker count and scheduling do not move it.
// A window costs two barrier crossings, always.
type ShardStats struct {
	// Windows is the number of bulk-synchronous windows executed.
	Windows uint64
	// CrossEvents counts events routed through the mailboxes.
	CrossEvents uint64
	// MergeBatches counts non-empty per-destination inbox drains.
	MergeBatches uint64
	// MailboxHighWater is the largest single drain observed.
	MailboxHighWater int
}

// NewShardedEngine builds a parallel engine with `domains` independent
// Engine instances, run by `workers`
// goroutines (clamped to [1, domains]) in windows of `window` nanoseconds.
// The window must be a lower bound on the latency of every cross-domain
// event: Send panics when violated.
func NewShardedEngine(domains, workers int, window Time) *ShardedEngine {
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
		doms:     make([]*Engine, domains),
		window:   window,
		workers:  workers,
		owner:    make([]int32, domains),
		seqs:     make([]uint64, domains),
		ws:       make([]workerState, workers),
		crossMin: maxTime,
	}
	for i := range s.doms {
		s.doms[i] = NewEngine()
	}
	for w := range s.ws {
		s.ws[w].minSent = maxTime
		lo, hi := s.block(w)
		for d := lo; d < hi; d++ {
			s.owner[d] = int32(w)
		}
		for p := range s.box {
			s.box[p] = append(s.box[p], make([][]xevent, domains))
		}
	}
	s.bar.init(workers)
	return s
}

// block returns worker w's domains, [lo, hi).
func (s *ShardedEngine) block(w int) (lo, hi int) {
	return w * len(s.doms) / s.workers, (w + 1) * len(s.doms) / s.workers
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

// Send schedules fn(arg) at absolute time `at` in domain dst, from an event
// currently executing in domain src. It must satisfy the lookahead
// contract: at >= src's current time + window.
func (s *ShardedEngine) Send(src, dst int, at Time, fn func(any), arg any) {
	s.SendTag(src, dst, at, EventTag{}, fn, arg)
}

// SendTag is Send with a checkpoint tag: the tag rides the mailbox and lands
// on the destination-engine event at drain time, so a snapshot taken after
// the drain can name it.
func (s *ShardedEngine) SendTag(src, dst int, at Time, tag EventTag, fn func(any), arg any) {
	d := s.doms[src]
	if at < d.now+s.window {
		panic(fmt.Sprintf("sim: cross-domain send at %v violates lookahead (now %v + window %v)",
			at, d.now, s.window))
	}
	w := s.owner[src]
	s.seqs[src]++
	q := &s.box[s.fill][w][dst]
	*q = append(*q, xevent{
		at: at, born: d.now, src: int32(src), seq: s.seqs[src], fn1: fn, arg: arg, tag: tag,
	})
	ws := &s.ws[w]
	ws.sent++
	if at < ws.minSent {
		ws.minSent = at
	}
}

// FlushMailboxes drains every buffered cross-domain event into its
// destination engine immediately. Only valid from a Global callback (all
// workers parked). The flush is exactly the drain the next window would have
// performed: between a global and the next window no domain runs and nothing
// else assigns destination-engine sequence numbers, so each batch, its
// canonical (at, born, src, seq) order, and the sequence numbers the
// destination engines hand out are identical either way — which is what
// lets a checkpoint global empty the mailboxes and snapshot per-domain
// queues without perturbing the run.
func (s *ShardedEngine) FlushMailboxes() {
	if s.pendingCross == 0 {
		return
	}
	for dst := range s.doms {
		s.drain(&s.ws[0], s.fill, dst)
	}
	s.stats.CrossEvents += s.pendingCross
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
// global's timestamp. Global may be called before Run or from within a
// global callback, not from domain events.
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
	for w := range s.ws {
		out.MergeBatches += s.ws[w].mergeBatches
		out.MailboxHighWater = max(out.MailboxHighWater, s.ws[w].mergeHW)
	}
	return out
}

// nextEventTime is the earliest pending timestamp across domains and
// undrained mailboxes.
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

	sense := uint32(0)
	for {
		t, ok := s.nextEventTime()
		// Fire globals that precede the next domain event; workers are
		// parked at the first barrier, so a global has exclusive access.
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
		lim := min(t+s.window-1, until)
		if g, gok := s.minGlobalAt(); gok {
			lim = min(lim, g-1) // never straddle a global's timestamp
		}
		s.lim = lim
		s.stats.Windows++
		// What the last window sent is this window's inbox; sends from now on
		// fill the other parity.
		s.stats.CrossEvents += s.pendingCross
		s.pendingCross, s.crossMin = 0, maxTime
		s.fill ^= 1
		s.bar.wait(&sense) // window published
		s.runBlock(0)
		s.bar.wait(&sense) // window done
		for w := range s.ws {
			ws := &s.ws[w]
			s.pendingCross += ws.sent
			s.crossMin = min(s.crossMin, ws.minSent)
			ws.sent, ws.minSent = 0, maxTime
		}
	}
	// Horizon: advance every domain to until (matching Engine.Run) and
	// release the workers. Mailbox events beyond the horizon stay buffered
	// for a later Run.
	for _, d := range s.doms {
		d.Run(until)
	}
	s.exit = true
	s.bar.wait(&sense)
	wg.Wait()
	s.exit = false
	s.globalNow = until
	return until
}

// workerLoop is the body of workers 1..N-1; the coordinator inlines the
// same barrier sequence inside Run.
func (s *ShardedEngine) workerLoop(w int) {
	sense := uint32(0)
	for {
		s.bar.wait(&sense) // window published
		if s.exit {
			return
		}
		s.runBlock(w)
		s.bar.wait(&sense) // window done
	}
}

// runBlock is worker w's share of the published window: each domain of its
// block takes delivery of what the previous window sent it, then runs to the
// window's limit.
func (s *ShardedEngine) runBlock(w int) {
	ws := &s.ws[w]
	inbox := s.fill ^ 1
	lo, hi := s.block(w)
	for d := lo; d < hi; d++ {
		s.drain(ws, inbox, d)
		s.doms[d].Run(s.lim)
	}
}

// drain empties the given parity's mailboxes for destination dst into its
// engine in (at, born, src, seq) order, through ws's scratch buffer. Drained
// lists and the scratch are cleared, not just truncated, so no fn or arg
// stays pinned by a backing array.
func (s *ShardedEngine) drain(ws *workerState, parity, dst int) {
	buf := ws.scratch[:0]
	for _, lists := range s.box[parity] {
		if q := lists[dst]; len(q) > 0 {
			buf = append(buf, q...)
			clear(q)
			lists[dst] = q[:0]
		}
	}
	if len(buf) == 0 {
		return
	}
	sortXevents(buf)
	e := s.doms[dst]
	for i := range buf {
		e.At1Tag(buf[i].at, buf[i].tag, buf[i].fn1, buf[i].arg)
	}
	ws.mergeBatches++
	ws.mergeHW = max(ws.mergeHW, len(buf))
	clear(buf)
	ws.scratch = buf[:0]
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

// sortXevents orders a drain batch: insertion sort for the common tiny
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

// wait blocks until all n participants arrive. sense is the caller's
// per-participant flag, flipped on every crossing.
func (b *barrier) wait(sense *uint32) {
	if b.n == 1 {
		return
	}
	ns := *sense ^ 1
	*sense = ns
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.sense.Store(ns)
		return
	}
	for i := 0; b.sense.Load() != ns; i++ {
		if i >= b.spin {
			runtime.Gosched()
		}
	}
}
