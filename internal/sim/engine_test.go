package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEngineRunsInOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("now = %v, want 30", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: got[%d]=%d", i, v)
		}
	}
}

func TestEngineHorizon(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func() { fired++ })
	e.At(100, func() { fired++ })
	end := e.Run(50)
	if fired != 1 {
		t.Fatalf("fired=%d, want 1", fired)
	}
	if end != 50 || e.Now() != 50 {
		t.Fatalf("horizon time = %v, want 50", end)
	}
	e.Run(200)
	if fired != 2 {
		t.Fatalf("fired=%d after second run, want 2", fired)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var trace []Time
	var tick func()
	tick = func() {
		trace = append(trace, e.Now())
		if e.Now() < 50 {
			e.After(10, tick)
		}
	}
	e.At(0, tick)
	e.RunAll()
	if len(trace) != 6 {
		t.Fatalf("trace = %v, want 6 ticks", trace)
	}
	for i, tm := range trace {
		if tm != Time(i*10) {
			t.Fatalf("tick %d at %v, want %v", i, tm, Time(i*10))
		}
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.RunAll()
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func() { fired++; e.Stop() })
	e.At(20, func() { fired++ })
	e.Run(100)
	if fired != 1 {
		t.Fatalf("fired=%d, want 1 (Stop should halt the loop)", fired)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending=%d, want 1", e.Pending())
	}
}

// Property: for any set of timestamps, the engine executes callbacks in
// non-decreasing time order and ends at the max timestamp.
func TestEngineOrderProperty(t *testing.T) {
	prop := func(stamps []uint16) bool {
		if len(stamps) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Time
		for _, s := range stamps {
			at := Time(s)
			e.At(at, func() { fired = append(fired, at) })
		}
		e.RunAll()
		if len(fired) != len(stamps) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		want := make([]int64, len(stamps))
		for i, s := range stamps {
			want[i] = int64(s)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if int64(fired[i]) != want[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestTimeString covers each unit boundary from both sides, for positive
// and negative times: the unit follows the magnitude, so a negative time
// reads as its absolute value would, with a minus sign.
func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0ns"},
		{1, "1ns"},
		{-1, "-1ns"},
		{500, "500ns"},
		{-500, "-500ns"},
		{Microsecond - 1, "999ns"},
		{-(Microsecond - 1), "-999ns"},
		{Microsecond, "1.000us"},
		{-Microsecond, "-1.000us"},
		{1500, "1.500us"},
		{-1500, "-1.500us"},
		{Millisecond - 1, "999.999us"},
		{-(Millisecond - 1), "-999.999us"},
		{Millisecond, "1.000ms"},
		{-Millisecond, "-1.000ms"},
		{2 * Millisecond, "2.000ms"},
		{Second - Microsecond, "999.999ms"},
		{-(Second - Microsecond), "-999.999ms"},
		{Second, "1.000s"},
		{-Second, "-1.000s"},
		{3 * Second, "3.000s"},
		{-3 * Second, "-3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if (2 * Second).Seconds() != 2.0 {
		t.Error("Seconds conversion wrong")
	}
	if (5 * Microsecond).Micros() != 5.0 {
		t.Error("Micros conversion wrong")
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.At(Time(j%97), func() {})
		}
		e.RunAll()
	}
}

// TestEnginePushDuringPopStress interleaves heavy same-instant scheduling
// with callbacks that schedule more work while the queue is being drained.
// The observed execution order is checked against the (at, seq) contract:
// times never decrease, and within one instant events fire in scheduling
// order. It runs as the subtest "wheel", named for the engine's queue.
func TestEnginePushDuringPopStress(t *testing.T) { t.Run("wheel", testEnginePushDuringPopStress) }

func testEnginePushDuringPopStress(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(42))
	type obs struct {
		at  Time
		tag int
	}
	var fired []obs
	tag := 0
	var spawn func(at Time, depth int)
	spawn = func(at Time, depth int) {
		tag++
		myTag := tag
		myAt := at
		e.At(myAt, func() {
			fired = append(fired, obs{myAt, myTag})
			if depth > 0 {
				// Re-schedule from inside the pop loop: same instant, a
				// random near future, and a clustered far slot.
				spawn(e.Now(), depth-1)
				spawn(e.Now()+Time(rng.Intn(5)), depth-1)
				spawn(e.Now()+50, depth-1)
			}
		})
	}
	for i := 0; i < 200; i++ {
		spawn(Time(rng.Intn(20)), 2)
	}
	e.RunAll()
	if len(fired) == 0 || uint64(len(fired)) != e.Processed() {
		t.Fatalf("fired=%d processed=%d", len(fired), e.Processed())
	}
	for i := 1; i < len(fired); i++ {
		if fired[i].at < fired[i-1].at {
			t.Fatalf("time went backwards at %d: %v after %v", i, fired[i], fired[i-1])
		}
		if fired[i].at == fired[i-1].at && fired[i].tag < fired[i-1].tag {
			t.Fatalf("FIFO violated at %d: tag %d after %d at %v",
				i, fired[i].tag, fired[i-1].tag, fired[i].at)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("pending=%d after RunAll", e.Pending())
	}
}

// Executed events are counted by tag kind — a timer under its own tag,
// untagged events in slot 0, a canceled timer occurrence nowhere — and the
// slots sum to Processed, on a fresh engine and on a restored one.
func TestEngineEventKinds(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	e.At(1, nop)
	e.AtTag(2, EventTag{Kind: 3}, nop)
	e.AtTag(2, EventTag{Kind: 3}, nop)
	e.At1Tag(3, EventTag{Kind: 7}, func(any) {}, nil)
	e.NewTimerTag(EventTag{Kind: 5}, nop).Reset(4)
	dead := e.NewTimerTag(EventTag{Kind: 6}, nop)
	dead.Reset(5)
	dead.Cancel()
	e.Run(10)
	want := EventKinds{0: 1, 3: 2, 5: 1, 7: 1}
	if got := e.EventKinds(); got != want {
		t.Fatalf("EventKinds = %v, want %v", got, want)
	}
	if e.Processed() != 5 || want.Total() != 5 {
		t.Fatalf("Processed = %d, slots sum to %d, want 5", e.Processed(), want.Total())
	}
	r := NewEngine()
	r.Restore(10, want)
	r.AtTag(11, EventTag{Kind: 3}, nop)
	r.Run(12)
	want[3]++
	if got := r.EventKinds(); got != want || r.Processed() != 6 {
		t.Fatalf("restored engine counts %v (Processed %d), want %v (6)", got, r.Processed(), want)
	}
}

// TestEngineLayout pins where the dispatch slot sits in the Engine: a 16-byte
// shift of cur once moved the packet benchmarks' event-loop speed by 20%, so
// a field added ahead of it has to be an intended move.
func TestEngineLayout(t *testing.T) {
	if off := unsafe.Offsetof(Engine{}.cur); off != 240 {
		t.Fatalf("Engine.cur at offset %d, want 240", off)
	}
}
