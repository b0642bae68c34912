package sim

import "testing"

// Each engine-contract test runs as the subtest "wheel", named for the timing
// wheel the engine schedules on.

func TestTimerFires(t *testing.T) { t.Run("wheel", testTimerFires) }

func testTimerFires(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := e.NewTimer(func() { fired++ })
	tm.Reset(100)
	if !tm.Armed() || tm.When() != 100 {
		t.Fatalf("armed=%v when=%v, want true/100", tm.Armed(), tm.When())
	}
	e.RunAll()
	if fired != 1 || e.Now() != 100 || tm.Armed() {
		t.Fatalf("fired=%d now=%v armed=%v", fired, e.Now(), tm.Armed())
	}
	if e.Processed() != 1 {
		t.Fatalf("processed=%d, want 1", e.Processed())
	}
}

func TestTimerCancel(t *testing.T) { t.Run("wheel", testTimerCancel) }

func testTimerCancel(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := e.NewTimer(func() { fired++ })
	tm.Reset(100)
	tm.Cancel()
	if tm.Armed() {
		t.Fatal("armed after Cancel")
	}
	e.RunAll()
	if fired != 0 {
		t.Fatalf("canceled timer fired %d times", fired)
	}
	// The lazily-deleted event surfaced but did not count as processed.
	if e.Processed() != 0 {
		t.Fatalf("processed=%d, want 0", e.Processed())
	}
	st := e.SchedStats()
	if st.Cancels != 1 || st.DeadPops != 1 {
		t.Fatalf("cancels=%d deadpops=%d, want 1/1", st.Cancels, st.DeadPops)
	}
}

func TestTimerResetLaterChases(t *testing.T) { t.Run("wheel", testTimerResetLaterChases) }

func testTimerResetLaterChases(t *testing.T) {
	e := NewEngine()
	var firedAt Time = -1
	tm := e.NewTimer(func() { firedAt = e.Now() })
	tm.Reset(100)
	// Slide the deadline out repeatedly: no new events should be queued.
	tm.Reset(200)
	tm.Reset(300)
	if e.Pending() != 1 {
		t.Fatalf("pending=%d after sliding resets, want 1", e.Pending())
	}
	e.RunAll()
	if firedAt != 300 || e.Now() != 300 {
		t.Fatalf("firedAt=%v now=%v, want 300", firedAt, e.Now())
	}
	if st := e.SchedStats(); st.Chases != 1 {
		t.Fatalf("chases=%d, want 1 (single re-arm at surface time)", st.Chases)
	}
}

func TestTimerResetEarlier(t *testing.T) { t.Run("wheel", testTimerResetEarlier) }

func testTimerResetEarlier(t *testing.T) {
	e := NewEngine()
	var fired []Time
	tm := e.NewTimer(func() { fired = append(fired, e.Now()) })
	tm.Reset(300)
	tm.Reset(100)
	if e.Pending() != 2 {
		t.Fatalf("pending=%d, want 2 (old event lazily deleted)", e.Pending())
	}
	e.RunAll()
	if len(fired) != 1 || fired[0] != 100 {
		t.Fatalf("fired=%v, want [100]", fired)
	}
	if st := e.SchedStats(); st.DeadPops != 1 {
		t.Fatalf("deadpops=%d, want 1", st.DeadPops)
	}
}

func TestTimerCancelThenResetSameTime(t *testing.T) { t.Run("wheel", testTimerCancelThenResetSameTime) }

func testTimerCancelThenResetSameTime(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := e.NewTimer(func() { fired++ })
	tm.Reset(100)
	tm.Cancel()
	tm.Reset(100)
	e.RunAll()
	if fired != 1 {
		t.Fatalf("fired=%d, want exactly 1", fired)
	}
}

func TestTimerRearmAfterFire(t *testing.T) { t.Run("wheel", testTimerRearmAfterFire) }

func testTimerRearmAfterFire(t *testing.T) {
	e := NewEngine()
	var fired []Time
	var tm *Timer
	tm = e.NewTimer(func() {
		fired = append(fired, e.Now())
		if e.Now() < 300 {
			tm.Reset(e.Now() + 100)
		}
	})
	tm.Reset(100)
	e.RunAll()
	want := []Time{100, 200, 300}
	if len(fired) != len(want) {
		t.Fatalf("fired=%v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired=%v, want %v", fired, want)
		}
	}
}

func TestTimerResetInPastPanics(t *testing.T) { t.Run("wheel", testTimerResetInPastPanics) }

func testTimerResetInPastPanics(t *testing.T) {
	e := NewEngine()
	tm := e.NewTimer(func() {})
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("Reset in the past did not panic")
			}
		}()
		tm.Reset(50)
	})
	e.RunAll()
}

// A slid deadline must not fire early even when the original occurrence
// surfaces mid-run at an instant where other events execute.
func TestTimerChaseOrdering(t *testing.T) { t.Run("wheel", testTimerChaseOrdering) }

func testTimerChaseOrdering(t *testing.T) {
	e := NewEngine()
	var trace []string
	var tm *Timer
	e.At(100, func() { trace = append(trace, "ev100"); tm.Reset(150) })
	tm = e.NewTimer(func() { trace = append(trace, "timer") })
	tm.Reset(100)
	e.At(150, func() { trace = append(trace, "ev150") })
	e.RunAll()
	// ev100 slides the deadline before the timer's occurrence surfaces;
	// the timer chases to 150 and fires after ev150 (its chase event is
	// scheduled later).
	want := []string{"ev100", "ev150", "timer"}
	if len(trace) != len(want) {
		t.Fatalf("trace=%v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace=%v, want %v", trace, want)
		}
	}
}
