package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// The serial-vs-sharded differential model: a set of lanes (one per
// domain), each with its own rng, trace, and cancelable timer. Lane
// handlers only touch their own lane's state and only draw from their own
// rng, so per-lane draw sequences are identical whenever per-lane event
// order is — which is exactly what the sharded engine promises.
//
// Serial-vs-sharded equality needs same-instant cross-lane ties to be
// ordered identically, and the serial engine orders them by global seq
// while the sharded drain orders them by (at, born, src, seq). The lattice
// construction makes the two agree structurally: with M = 2·lanes, lane
// i's intra-lane events run at times ≡ 2i (mod M) and cross events INTO
// lane d land at times ≡ 2d+1 (mod M). Then (a) a cross arrival can never
// tie with an intra-lane event, and (b) two cross arrivals into the same
// lane at the same instant were necessarily born at different times
// (different source lanes occupy disjoint residues; a lane's send to itself
// stays on its own engine and is an intra-lane event), so serial seq order
// equals born order equals the sharded drain order. Cases with the lattice
// off compare sharded runs with each other: any two agree regardless of ties.
type shModel struct {
	lanes  []*shLane
	engOf  func(i int) *Engine
	send   func(src, dst int, at Time, fn func(any), arg any)
	window Time
	mod    Time // 0: no lattice alignment
}

type shLane struct {
	m         *shModel
	id        int
	rng       *rand.Rand
	trace     []string
	remaining int
	timer     *Timer
	onCrossFn func(any)
}

// alignTo bumps t to the smallest t' >= t with t' ≡ res (mod m.mod).
func (m *shModel) alignTo(t, res Time) Time {
	if m.mod == 0 {
		return t
	}
	return t + (res-t%m.mod+m.mod)%m.mod
}

func (l *shLane) now() Time { return l.m.engOf(l.id).Now() }

func (l *shLane) scheduleLocal(at Time) {
	l.m.engOf(l.id).At(at, func() {
		l.trace = append(l.trace, fmt.Sprintf("L@%d", l.now()))
		l.step()
	})
}

func (l *shLane) onCross(a any) {
	l.trace = append(l.trace, fmt.Sprintf("X%d@%d", a.(int), l.now()))
	l.step()
}

func (l *shLane) onTimer() {
	l.trace = append(l.trace, fmt.Sprintf("T@%d", l.now()))
	l.step()
}

// step is the lane's randomized behavior, run from every event handler.
func (l *shLane) step() {
	now := l.now()
	m := l.m
	for k := l.rng.Intn(3); k > 0 && l.remaining > 0; k-- {
		l.remaining--
		switch l.rng.Intn(5) {
		case 0, 1: // cross send with lookahead
			d := l.rng.Intn(len(m.lanes))
			at := now + m.window + Time(l.rng.Int63n(4*int64(m.window)))
			if d == l.id {
				// A send to oneself never leaves the lane's engine, so it is
				// an intra-lane event and takes the lane's own residue.
				m.engOf(l.id).At1(m.alignTo(at, Time(2*d)), m.lanes[d].onCrossFn, l.id)
			} else {
				m.send(l.id, d, m.alignTo(at, Time(2*d+1)), m.lanes[d].onCrossFn, l.id)
			}
		case 2: // timer churn: reset or cancel the lane timer
			if l.rng.Intn(4) == 0 {
				l.timer.Cancel()
			} else {
				l.timer.Reset(m.alignTo(now+Time(l.rng.Int63n(6*int64(m.window))), Time(2*l.id)))
			}
		default: // intra-lane event, any delay (below the window included)
			l.scheduleLocal(m.alignTo(now+Time(l.rng.Int63n(3*int64(m.window))), Time(2*l.id)))
		}
	}
}

// seedModel builds lanes and their initial events.
func seedModel(m *shModel, lanes int, seed int64, perLane int) {
	m.lanes = make([]*shLane, lanes)
	for i := range m.lanes {
		l := &shLane{m: m, id: i, rng: rand.New(rand.NewSource(seed*1000 + int64(i))), remaining: perLane}
		l.onCrossFn = l.onCross
		l.timer = m.engOf(i).NewTimer(l.onTimer)
		m.lanes[i] = l
		for k := 0; k < 4; k++ {
			l.scheduleLocal(m.alignTo(Time(l.rng.Int63n(8*int64(m.window))), Time(2*i)))
		}
	}
}

// runLatticeSerial runs the lattice model on one serial Engine.
func runLatticeSerial(kind QueueKind, lanes int, seed int64, window Time, horizons []Time) ([][]string, uint64) {
	e := NewEngineQueue(kind)
	m := &shModel{
		engOf:  func(int) *Engine { return e },
		send:   func(_, _ int, at Time, fn func(any), arg any) { e.At1(at, fn, arg) },
		window: window,
		mod:    Time(2 * lanes),
	}
	seedModel(m, lanes, seed, 60)
	for _, h := range horizons {
		e.Run(h)
	}
	return tracesOf(m), e.Processed()
}

// runLatticeSharded runs the same model on a ShardedEngine, one lane per
// domain. Each instant of flushAt is a global that calls FlushMailboxes, as
// a checkpoint would. The returned engine is for white-box inspection.
func runLatticeSharded(kind QueueKind, lanes, workers int, seed int64, window Time, horizons, flushAt []Time, lattice bool) ([][]string, *ShardedEngine) {
	sh := NewShardedEngine(lanes, workers, window, kind)
	m := &shModel{
		engOf:  sh.Domain,
		send:   sh.Send,
		window: window,
	}
	if lattice {
		m.mod = Time(2 * lanes)
	}
	seedModel(m, lanes, seed, 60)
	for _, at := range flushAt {
		sh.Global(at, sh.FlushMailboxes)
	}
	for _, h := range horizons {
		sh.Run(h)
	}
	return tracesOf(m), sh
}

func tracesOf(m *shModel) [][]string {
	out := make([][]string, len(m.lanes))
	for i, l := range m.lanes {
		out[i] = l.trace
	}
	return out
}

func compareTraces(t *testing.T, name string, want, got [][]string) {
	t.Helper()
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("%s: lane %d trace lengths differ: %d vs %d", name, i, len(want[i]), len(got[i]))
		}
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				t.Fatalf("%s: lane %d diverges at %d: %q vs %q", name, i, j, want[i][j], got[i][j])
			}
		}
	}
}

// shardCase is one input of the serial-vs-sharded differential: a lattice
// model (seed, lanes, window), the Run horizons it is split at, the instants
// a global flushes the mailboxes, and the worker counts to run it under.
// With the lattice on, every sharded run must reproduce the serial engine's
// per-lane traces and event count; with it off (arbitrary cross-domain tie
// patterns, which the serial engine orders differently) every sharded run
// must reproduce the first one — the (at, born, src, seq) drain order is a
// total order independent of worker count and scheduling.
type shardCase struct {
	seed     int64
	kind     QueueKind
	lanes    int
	workers  []int
	window   Time
	horizons []Time
	flushAt  []Time
	lattice  bool
}

// genShardCase derives a case from one seed: lanes 2–24, three worker counts
// in 1…lanes (the extremes always, so non-dividing counts come up as often
// as dividing ones), a window of 1–2000 ns, up to six intermediate horizons
// and up to three mailbox flushes before a final horizon past quiescence.
func genShardCase(seed int64) shardCase {
	rng := rand.New(rand.NewSource(seed))
	c := shardCase{
		seed:    seed,
		kind:    QueueKind(rng.Intn(2)),
		lanes:   2 + rng.Intn(23),
		window:  Time(1 + rng.Int63n(2000)),
		lattice: rng.Intn(2) == 0,
	}
	c.workers = []int{1, 1 + rng.Intn(c.lanes), c.lanes}
	h := Time(0)
	for i := rng.Intn(7); i > 0; i-- {
		h += Time(rng.Int63n(20 * int64(c.window)))
		c.horizons = append(c.horizons, h)
	}
	c.horizons = append(c.horizons, h+Second)
	for i := rng.Intn(4); i > 0; i-- {
		c.flushAt = append(c.flushAt, Time(rng.Int63n(60*int64(c.window))))
	}
	return c
}

// checkShardCase runs the case and fails the test on the first divergence.
// Every sharded run ends quiescent, so it also checks mailbox hygiene.
func checkShardCase(t *testing.T, c shardCase) {
	t.Helper()
	var want [][]string
	var wantN uint64
	ref := "serial"
	if c.lattice {
		want, wantN = runLatticeSerial(c.kind, c.lanes, c.seed, c.window, c.horizons)
	}
	for _, workers := range c.workers {
		tr, sh := runLatticeSharded(c.kind, c.lanes, workers, c.seed, c.window, c.horizons, c.flushAt, c.lattice)
		name := fmt.Sprintf("%+v: workers=%d vs %s", c, workers, ref)
		requireMailboxesZero(t, name, sh)
		if want == nil {
			want, wantN, ref = tr, sh.Processed(), fmt.Sprintf("workers=%d", workers)
			continue
		}
		compareTraces(t, name, want, tr)
		if n := sh.Processed(); n != wantN {
			t.Fatalf("%s: processed %d, want %d", name, n, wantN)
		}
	}
}

// requireMailboxesZero checks that a quiescent engine pins nothing: every
// mailbox list and every worker's drain scratch is zero over its whole
// capacity, not merely truncated.
func requireMailboxesZero(t *testing.T, name string, sh *ShardedEngine) {
	t.Helper()
	zero := func(where string, q []xevent) {
		if len(q) != 0 {
			t.Fatalf("%s: %s holds %d undrained events", name, where, len(q))
		}
		for i, x := range q[:cap(q)] {
			if x.fn1 != nil || x.arg != nil || x.at != 0 || x.born != 0 || x.src != 0 || x.seq != 0 || x.tag != (EventTag{}) {
				t.Fatalf("%s: %s slot %d still holds %+v", name, where, i, x)
			}
		}
	}
	for p := range sh.box {
		for w, lists := range sh.box[p] {
			for dst, q := range lists {
				zero(fmt.Sprintf("box[%d][%d][%d]", p, w, dst), q)
			}
		}
	}
	for w := range sh.ws {
		zero(fmt.Sprintf("worker %d scratch", w), sh.ws[w].scratch)
	}
}

// TestShardedGeneratedDifferential is the tentpole determinism claim over
// generated inputs. A failure names the seed; replay it alone with
// checkShardCase(t, genShardCase(seed)).
func TestShardedGeneratedDifferential(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		checkShardCase(t, genShardCase(seed))
	}
}

// TestDifferentialSerialSharded is the differential on a hand-picked input:
// five lanes under 1, 2, 3 (non-dividing) and 5 workers, both queue kinds,
// six random split horizons — and the serial wheel against the serial heap.
func TestDifferentialSerialSharded(t *testing.T) {
	const lanes = 5
	const window = Time(1000)
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			hrng := rand.New(rand.NewSource(seed + 77))
			c := shardCase{seed: seed, lanes: lanes, workers: []int{1, 2, 3, lanes}, window: window, lattice: true}
			h := Time(0)
			for i := 0; i < 6; i++ {
				h += Time(hrng.Int63n(20 * int64(window)))
				c.horizons = append(c.horizons, h)
			}
			c.horizons = append(c.horizons, h+Second)

			wheelTr, wheelN := runLatticeSerial(QueueWheel, lanes, seed, window, c.horizons)
			heapTr, heapN := runLatticeSerial(QueueHeap, lanes, seed, window, c.horizons)
			compareTraces(t, "serial wheel vs heap", wheelTr, heapTr)
			if wheelN != heapN {
				t.Fatalf("serial processed: wheel=%d heap=%d", wheelN, heapN)
			}
			for _, kind := range []QueueKind{QueueWheel, QueueHeap} {
				c.kind = kind
				checkShardCase(t, c)
			}
		})
	}
}

// TestShardedWorkerCountDeterminism is the differential with the lattice
// off on a hand-picked input: six lanes under 1, 2, 3 and 6 workers.
func TestShardedWorkerCountDeterminism(t *testing.T) {
	const window = Time(777)
	for seed := int64(1); seed <= 8; seed++ {
		checkShardCase(t, shardCase{
			seed: seed, lanes: 6, workers: []int{1, 2, 3, 6}, window: window,
			horizons: []Time{5 * window, 40 * window, Second},
		})
	}
}

// TestShardedGlobalEvents pins the Global contract: callbacks run between
// windows at exactly their timestamp, never straddled by a window (every
// domain has advanced to just short of the global when it fires), and the
// coordinator clock lands on the horizon afterwards.
func TestShardedGlobalEvents(t *testing.T) {
	sh := NewShardedEngine(3, 2, 100, QueueWheel)
	var fired []Time
	// Domain traffic past the global instants, including cross sends.
	for d := 0; d < 3; d++ {
		d := d
		sh.Domain(d).At(0, func() {
			var tick func()
			tick = func() {
				e := sh.Domain(d)
				if e.Now() >= 2000 {
					return
				}
				dst := (d + 1) % 3
				sh.Send(d, dst, e.Now()+150, func(any) {}, nil)
				e.After(40, tick)
			}
			tick()
		})
	}
	for _, at := range []Time{500, 500, 1250} {
		at := at
		sh.Global(at, func() {
			if sh.GlobalNow() != at {
				t.Fatalf("global clock %v, want %v", sh.GlobalNow(), at)
			}
			for i := 0; i < sh.Domains(); i++ {
				if n := sh.Domain(i).Now(); n >= at {
					t.Fatalf("domain %d at %v not strictly before global %v", i, n, at)
				}
			}
			fired = append(fired, at)
		})
	}
	end := sh.Run(3000)
	if end != 3000 || sh.GlobalNow() != 3000 {
		t.Fatalf("run ended at %v (global clock %v), want 3000", end, sh.GlobalNow())
	}
	want := []Time{500, 500, 1250}
	if len(fired) != len(want) {
		t.Fatalf("globals fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("globals fired %v, want %v", fired, want)
		}
	}
	st := sh.Stats()
	if st.Windows == 0 || st.CrossEvents == 0 {
		t.Fatalf("expected windows and cross events, got %+v", st)
	}
}

// TestShardedLocalTrafficGlobalAndHorizon runs purely domain-local traffic:
// a global event mid-run must fire at its exact timestamp with every domain
// strictly before it, a horizon that is not a multiple of the window must
// land exactly, and nothing may be counted as crossing domains.
func TestShardedLocalTrafficGlobalAndHorizon(t *testing.T) {
	const window = Time(100)
	const horizon = Time(123_457) // deliberately not window-aligned
	sh := NewShardedEngine(4, 2, window, QueueWheel)
	ticks := make([]int, 4)
	for d := 0; d < 4; d++ {
		d := d
		var tick func()
		tick = func() {
			ticks[d]++
			if e := sh.Domain(d); e.Now() < horizon-50 {
				e.After(40, tick)
			}
		}
		sh.Domain(d).At(0, func() { tick() })
	}
	globalFired := false
	sh.Global(60_000, func() {
		if sh.GlobalNow() != 60_000 {
			t.Errorf("global clock %v, want 60000", sh.GlobalNow())
		}
		for i := 0; i < sh.Domains(); i++ {
			if n := sh.Domain(i).Now(); n >= 60_000 {
				t.Errorf("domain %d at %v not strictly before the global", i, n)
			}
		}
		globalFired = true
	})
	if end := sh.Run(horizon); end != horizon {
		t.Fatalf("run ended at %v, want %v", end, horizon)
	}
	if !globalFired {
		t.Fatal("global event never fired")
	}
	for d, n := range ticks {
		if n == 0 {
			t.Fatalf("domain %d ran no events", d)
		}
		if now := sh.Domain(d).Now(); now != horizon {
			t.Fatalf("domain %d stopped at %v, want %v", d, now, horizon)
		}
	}
	if st := sh.Stats(); st.Windows == 0 || st.CrossEvents != 0 || st.MergeBatches != 0 || st.MailboxHighWater != 0 {
		t.Fatalf("local-only traffic: want windows and no mailbox activity, got %+v", st)
	}
}

// TestShardedEngineFootprint bounds what the engine costs beyond its domain
// engines: 2·W·D mailbox list headers and three per-domain words, not a D×D
// matrix (which at 512 domains was 6.8 MB).
func TestShardedEngineFootprint(t *testing.T) {
	const domains = 512
	var m0, m1, m2 runtime.MemStats
	engines := make([]*Engine, domains)
	runtime.ReadMemStats(&m0)
	for i := range engines {
		engines[i] = NewEngine()
	}
	runtime.ReadMemStats(&m1)
	sh := NewShardedEngine(domains, 2, 1000, QueueWheel)
	runtime.ReadMemStats(&m2)
	bare, sharded := m1.TotalAlloc-m0.TotalAlloc, m2.TotalAlloc-m1.TotalAlloc
	if sharded > bare+256<<10 {
		t.Fatalf("NewShardedEngine(%d, 2) allocated %d bytes, %d more than its %d engines (%d); want under 256 KB more",
			domains, sharded, sharded-bare, domains, bare)
	}
	runtime.KeepAlive(engines)
	runtime.KeepAlive(sh)
}

// TestShardedSendLookaheadPanics pins the lookahead contract.
func TestShardedSendLookaheadPanics(t *testing.T) {
	sh := NewShardedEngine(2, 1, 1000, QueueWheel)
	sh.Domain(0).At(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("Send inside the lookahead window did not panic")
			}
		}()
		sh.Send(0, 1, 999, func(any) {}, nil)
	})
	sh.Run(10)
}
