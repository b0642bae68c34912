package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// snapshotByDrain is SnapshotEvents as it was before it read the queue in
// place: pop every event, describe the live ones, then push everything back
// into a fresh queue. Its descriptors are the oracle for the in-place walk.
// The re-push is what made it impure: the fresh wheel's cursor starts at 0,
// so every event re-enters at a high level and cascades again.
func snapshotByDrain(e *Engine) ([]EventDesc, error) {
	drained := make([]event, 0, e.Pending())
	for {
		var ev event
		if !e.wheel.popLE(maxTime, &ev) {
			break
		}
		drained = append(drained, ev)
	}
	descs := make([]EventDesc, 0, len(drained))
	var err error
	if len(e.deferred) > 0 {
		err = fmt.Errorf("sim: %d deferred call(s) outstanding at %v cannot be checkpointed", len(e.deferred), e.now)
	}
	for i := range drained {
		ev := &drained[i]
		switch {
		case ev.fn != nil, ev.fn1 != nil:
			if ev.tag.Kind == 0 && err == nil {
				err = fmt.Errorf("sim: untagged pending event at %v cannot be checkpointed", ev.at)
			}
			descs = append(descs, EventDesc{At: ev.at, Tag: ev.tag, Arg: ev.arg})
		default:
			tm := ev.arg.(*Timer)
			if ev.tgen != tm.gen {
				continue
			}
			if tm.tag.Kind == 0 && err == nil {
				err = fmt.Errorf("sim: untagged pending timer at %v cannot be checkpointed", ev.at)
			}
			descs = append(descs, EventDesc{
				At: ev.at, Tag: tm.tag,
				Timer: true, Armed: tm.armed, Deadline: tm.at,
			})
		}
	}
	fresh := newTimingWheel()
	fresh.cascades = e.wheel.cascades
	fresh.overflowPushes = e.wheel.overflowPushes
	e.wheel = fresh
	for i := range drained {
		e.push(drained[i])
	}
	return descs, err
}

// popRec is one dispatched event: when, its sequence number, and its kind.
type popRec struct {
	at   Time
	seq  uint64
	kind uint8
}

// stopRec is the engine as a stop left it: the snapshot taken there (nil
// when none was), the scheduler counters, and the queue's size and head.
type stopRec struct {
	descs   []EventDesc
	stats   SchedStats
	pending int
	next    Time
}

// runSnapshotScript runs a seeded script on a fresh engine: plain, At1 and
// timer events that schedule more of themselves at delays from the same
// instant to past the 2^36 ns wheel horizon, and timers reset later (they
// chase), reset earlier (the queued occurrence dies) and canceled. It stops
// at seeded instants and calls snap there, when snap is not nil. Stops and
// model draws come from separate generators, so every snap (or none) sees
// the same run.
func runSnapshotScript(t *testing.T, seed int64, snap func(*Engine) ([]EventDesc, error)) ([]popRec, []stopRec) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(seed))
	var trace []popRec
	record := func(k uint8) { trace = append(trace, popRec{e.cur.at, e.cur.seq, k}) }
	delay := func() Time {
		switch r := rng.Intn(100); {
		case r < 55:
			return Time(rng.Intn(l0Slots)) // same instant up to level 0's window
		case r < 80:
			return Time(rng.Int63n(1 << 22))
		case r < 96:
			return Time(rng.Int63n(1 << 31))
		default:
			return 1<<horizonBits + Time(rng.Int63n(1<<24)) // overflow heap
		}
	}
	budget := 8000
	var timers []*Timer
	var spawn func()
	spawnSome := func() { // 1.5 on average: the population grows until the budget runs out
		for n := rng.Intn(3) + rng.Intn(2); n > 0; n-- {
			spawn()
		}
	}
	fn1 := func(any) { record(2); spawnSome() }
	spawn = func() {
		if budget == 0 {
			return
		}
		budget--
		at := e.Now() + delay()
		switch rng.Intn(4) {
		case 0:
			e.AtTag(at, EventTag{Kind: 1}, func() { record(1); spawnSome() })
		case 1:
			e.At1Tag(at, EventTag{Kind: 2, A: int32(budget)}, fn1, budget)
		default:
			tm := timers[rng.Intn(len(timers))]
			switch r := rng.Intn(5); {
			case r == 0:
				tm.Cancel()
			case r <= 2 && tm.Armed():
				tm.Reset(tm.When() + delay()) // later: the queued occurrence chases
			case r == 3 && tm.Armed() && tm.When() > e.Now():
				tm.Reset(e.Now() + Time(rng.Int63n(int64(tm.When()-e.Now())))) // earlier: it dies
			default:
				tm.Reset(at)
			}
		}
	}
	for i := 0; i < 32; i++ {
		k := uint8(3 + i%2)
		timers = append(timers, e.NewTimerTag(EventTag{Kind: k, A: int32(i)}, func() { record(k); spawnSome() }))
	}
	for i := 0; i < 60; i++ {
		spawn()
	}

	stop := rand.New(rand.NewSource(seed + 7919))
	var stops []stopRec
	for e.Pending() > 0 {
		var step Time
		switch r := stop.Intn(100); {
		case r < 80:
			step = Time(stop.Int63n(20000))
		case r < 97:
			step = Time(stop.Int63n(1 << 31))
		default:
			step = Time(stop.Int63n(1 << (horizonBits + 1)))
		}
		e.Run(e.Now() + step)
		var s stopRec
		if snap != nil {
			var err error
			if s.descs, err = snap(e); err != nil {
				t.Fatalf("snapshot at %v: %v", e.Now(), err)
			}
		}
		s.stats, s.pending = e.SchedStats(), e.Pending()
		s.next, _ = e.NextAt()
		stops = append(stops, s)
	}
	return trace, stops
}

// TestSnapshotEventsIsPureRead: a run that snapshots at
// seeded instants pops the same (at, seq, kind) trace as one that never
// does, and after every snapshot each SchedStats counter, the pending count
// and the queue head are what the snapshot-free run has there. The
// descriptors equal the drain-and-rebuild oracle's. The seeds run under the
// subtest "wheel", named for the engine's queue.
func TestSnapshotEventsIsPureRead(t *testing.T) { t.Run("wheel", testSnapshotEventsIsPureRead) }

func testSnapshotEventsIsPureRead(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			plainTrace, plain := runSnapshotScript(t, seed, nil)
			trace, snapped := runSnapshotScript(t, seed, func(e *Engine) ([]EventDesc, error) {
				return e.SnapshotEvents(nil)
			})
			oracleTrace, oracle := runSnapshotScript(t, seed, snapshotByDrain)

			if !reflect.DeepEqual(trace, plainTrace) || !reflect.DeepEqual(oracleTrace, plainTrace) {
				t.Fatalf("pop traces differ: %d plain, %d snapshotting, %d oracle", len(plainTrace), len(trace), len(oracleTrace))
			}
			if len(snapped) != len(plain) || len(oracle) != len(plain) {
				t.Fatalf("stops: %d plain, %d snapshotting, %d oracle", len(plain), len(snapped), len(oracle))
			}
			var descs, timers, disarmed, far int
			for i := range plain {
				s, p := snapped[i], plain[i]
				if s.stats != p.stats || s.pending != p.pending || s.next != p.next {
					t.Fatalf("stop %d: snapshotting run has %+v, pending %d, next %v; plain run %+v, pending %d, next %v",
						i, s.stats, s.pending, s.next, p.stats, p.pending, p.next)
				}
				if !slices.Equal(s.descs, oracle[i].descs) {
					t.Fatalf("stop %d: descriptors differ from the drain oracle:\n got  %v\n want %v", i, s.descs, oracle[i].descs)
				}
				for _, d := range s.descs {
					descs++
					if d.Timer {
						timers++
						if !d.Armed {
							disarmed++
						}
					}
					if d.At-s.descs[0].At >= 1<<horizonBits {
						far++
					}
				}
			}
			// The script must have reached every shape it claims to.
			end := plain[len(plain)-1].stats
			if end.DeadPops == 0 || end.Chases == 0 || end.Cancels == 0 || descs == 0 || timers == 0 || disarmed == 0 || far == 0 {
				t.Fatalf("script too tame: %+v; %d descriptors, %d timers, %d disarmed, %d past the horizon",
					end, descs, timers, disarmed, far)
			}
			if end.OverflowPushes == 0 || end.Cascades == 0 {
				t.Fatalf("wheel never overflowed or cascaded: %+v", end)
			}
		})
	}
}
