package sim

import (
	"testing"
	"testing/quick"
)

func TestLoopOrdering(t *testing.T) {
	l := NewLoop(1)
	var order []int
	l.At(30*Microsecond, func() { order = append(order, 3) })
	l.At(10*Microsecond, func() { order = append(order, 1) })
	l.At(20*Microsecond, func() { order = append(order, 2) })
	l.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if l.Now() != 30*Microsecond {
		t.Fatalf("clock = %v, want 30µs", l.Now())
	}
}

func TestLoopFIFOTieBreak(t *testing.T) {
	l := NewLoop(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		l.At(5*Millisecond, func() { order = append(order, i) })
	}
	l.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestLoopRunUntil(t *testing.T) {
	l := NewLoop(1)
	var fired []Time
	for _, at := range []Time{Millisecond, 2 * Millisecond, 3 * Millisecond} {
		at := at
		l.At(at, func() { fired = append(fired, at) })
	}
	l.RunUntil(2 * Millisecond)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if l.Now() != 2*Millisecond {
		t.Fatalf("clock = %v, want 2ms", l.Now())
	}
	l.RunUntil(10 * Millisecond)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if l.Now() != 10*Millisecond {
		t.Fatalf("clock = %v, want 10ms (deadline)", l.Now())
	}
}

func TestLoopSchedulingInsideEvent(t *testing.T) {
	l := NewLoop(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			l.After(Millisecond, tick)
		}
	}
	l.After(0, tick)
	l.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if l.Now() != 4*Millisecond {
		t.Fatalf("clock = %v, want 4ms", l.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	l := NewLoop(1)
	l.At(Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		l.At(0, func() {})
	})
	l.Run()
}

func TestTimerResetStop(t *testing.T) {
	l := NewLoop(1)
	fires := 0
	tm := NewTimer(l, func() { fires++ })
	tm.ResetAfter(Millisecond)
	tm.ResetAfter(2 * Millisecond) // supersedes the first arm
	l.Run()
	if fires != 1 {
		t.Fatalf("timer fired %d times, want 1", fires)
	}
	if l.Now() != 2*Millisecond {
		t.Fatalf("timer fired at %v, want 2ms", l.Now())
	}

	tm.ResetAfter(Millisecond)
	if !tm.Armed() {
		t.Fatal("timer should be armed")
	}
	tm.Stop()
	if tm.Armed() {
		t.Fatal("timer should be disarmed")
	}
	l.Run()
	if fires != 1 {
		t.Fatalf("stopped timer fired; fires = %d", fires)
	}
}

func TestTimerDeadline(t *testing.T) {
	l := NewLoop(1)
	tm := NewTimer(l, func() {})
	tm.Reset(7 * Millisecond)
	if got := tm.Deadline(); got != 7*Millisecond {
		t.Fatalf("Deadline = %v, want 7ms", got)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int64 {
		l := NewLoop(42)
		var vals []int64
		var step func()
		step = func() {
			vals = append(vals, l.Rand().Int63n(1000))
			if len(vals) < 100 {
				l.After(Time(l.Rand().Int63n(int64(Millisecond))), step)
			}
		}
		l.After(0, step)
		l.Run()
		return vals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: for any set of scheduled offsets, events fire in nondecreasing
// time order and the loop terminates with the clock at the max offset.
func TestQuickEventOrdering(t *testing.T) {
	f := func(offsets []uint32) bool {
		l := NewLoop(7)
		var fired []Time
		var max Time
		for _, o := range offsets {
			at := Time(o)
			if at > max {
				max = at
			}
			l.At(at, func() { fired = append(fired, l.Now()) })
		}
		l.Run()
		if len(fired) != len(offsets) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(offsets) == 0 || l.Now() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeHelpers(t *testing.T) {
	ts := 1500 * Millisecond
	if ts.Duration().Milliseconds() != 1500 {
		t.Fatalf("Duration = %v", ts.Duration())
	}
	if ts.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v", ts.Seconds())
	}
	if ts.String() != "1.5s" {
		t.Fatalf("String = %q", ts.String())
	}
}

func TestEventIntrospection(t *testing.T) {
	l := NewLoop(1)
	if _, ok := l.NextAt(); ok {
		t.Fatal("empty loop reports a next event")
	}
	l.At(5*Millisecond, func() {})
	tm := NewTimer(l, func() {})
	tm.Reset(7 * Millisecond)
	if at, ok := l.NextAt(); !ok || at != 5*Millisecond {
		t.Fatalf("NextAt = %v, %v; want 5ms, true", at, ok)
	}
	tm.Reset(Microsecond)
	if at, _ := l.NextAt(); at != Microsecond {
		t.Fatalf("NextAt = %v after moving the timer to the head, want 1µs", at)
	}
}

func TestLoopCounters(t *testing.T) {
	l := NewLoop(1)
	if l.Pending() != 0 || l.Fired() != 0 {
		t.Fatal("fresh loop has activity")
	}
	l.At(Millisecond, func() {})
	l.At(2*Millisecond, func() {})
	if l.Pending() != 2 {
		t.Fatalf("Pending = %d", l.Pending())
	}
	l.Run()
	if l.Fired() != 2 || l.Pending() != 0 {
		t.Fatalf("Fired/Pending = %d/%d", l.Fired(), l.Pending())
	}
}

func TestAfterNegativeClamps(t *testing.T) {
	l := NewLoop(1)
	fired := false
	l.After(-Millisecond, func() { fired = true })
	l.Run()
	if !fired {
		t.Fatal("negative After should fire immediately")
	}
	if l.Now() != 0 {
		t.Fatalf("clock = %v", l.Now())
	}
}

// A timer owns its event: re-arming and stopping must neither allocate nor
// leave anything behind in the queue, however often they happen.
func TestTimerRearmIsFreeAndLeavesNoTombstones(t *testing.T) {
	l := NewLoop(1)
	other := NewTimer(l, func() {})
	other.Reset(Second) // something else in the heap to sift past
	tm := NewTimer(l, func() {})
	at := Time(0)
	if n := testing.AllocsPerRun(1000, func() {
		at += Microsecond
		tm.Reset(at)
	}); n != 0 {
		t.Errorf("Reset allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		tm.Reset(at)
		tm.Stop()
	}); n != 0 {
		t.Errorf("Reset+Stop allocates %v times per call, want 0", n)
	}
	for i := 0; i < 1_000_000; i++ {
		tm.Reset(Time(i%1000) * Millisecond)
	}
	if got := l.Pending(); got != 2 {
		t.Fatalf("Pending = %d after 10^6 re-arms of one timer, want 2", got)
	}
	tm.Stop()
	other.Stop()
	if got := l.Pending(); got != 0 {
		t.Fatalf("Pending = %d after stopping every timer, want 0", got)
	}
}

// Among equal timestamps everything fires in the order it was scheduled,
// and a timer counts from its latest Reset, whether that moved its event
// inside the heap or pushed it anew.
func TestTimerFIFOAmongEqualTimestamps(t *testing.T) {
	l := NewLoop(1)
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }
	a, b, c := NewTimer(l, note("a")), NewTimer(l, note("b")), NewTimer(l, note("c"))
	at := 5 * Millisecond
	a.Reset(at)
	l.At(at, note("e1"))
	b.Reset(2 * at) // armed elsewhere first ...
	c.Reset(at)
	l.At(at, note("e2"))
	a.Reset(at) // re-armed at the same time: now behind e2
	b.Reset(at) // ... then moved here: behind a
	l.Run()
	want := []string{"e1", "c", "e2", "a", "b"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

func TestTimerRearmedFromItsOwnCallback(t *testing.T) {
	l := NewLoop(1)
	fires := 0
	var tm *Timer
	tm = NewTimer(l, func() {
		if tm.Armed() {
			t.Error("timer reports armed while its callback runs")
		}
		if fires++; fires < 3 {
			tm.ResetAfter(Millisecond)
		}
	})
	tm.Reset(0)
	l.Run()
	if fires != 3 || l.Now() != 2*Millisecond || l.Pending() != 0 {
		t.Fatalf("fires=%d now=%v pending=%d, want 3, 2ms, 0", fires, l.Now(), l.Pending())
	}
}
