// Package sim provides a deterministic discrete-event simulation engine.
//
// All simulated components (the 802.11 MAC, the wired link emulator, the
// transport endpoints) schedule callbacks on a single Loop. The loop owns a
// virtual clock with nanosecond resolution; events fire in strict timestamp
// order, with insertion order breaking ties so a run is fully reproducible
// for a given seed.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Time is a virtual timestamp measured as a duration since the start of the
// simulation. It is deliberately distinct from time.Time so that simulated
// code cannot accidentally consult the wall clock.
type Time time.Duration

// Common virtual-time constants mirroring the time package.
const (
	Nanosecond  Time = Time(time.Nanosecond)
	Microsecond Time = Time(time.Microsecond)
	Millisecond Time = Time(time.Millisecond)
	Second      Time = Time(time.Second)
)

// Duration converts t to a time.Duration since simulation start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns the timestamp expressed in seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// String formats the timestamp like a time.Duration.
func (t Time) String() string { return time.Duration(t).String() }

// Event is a scheduled callback.
type Event struct {
	at    Time
	seq   uint64 // tie-break: FIFO among equal timestamps
	fn    func()
	index int // heap index, -1 while not queued
}

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Loop is a single-threaded discrete-event loop. It is not safe for
// concurrent use; simulated components must only touch it from event
// callbacks (which the loop serializes by construction).
type Loop struct {
	now    Time
	queue  eventQueue
	nextID uint64
	rng    *rand.Rand
	fired  uint64
}

// NewLoop returns a loop whose random source is seeded with seed.
// Identical seeds yield identical runs.
func NewLoop(seed int64) *Loop {
	return &Loop{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (l *Loop) Now() Time { return l.now }

// Rand exposes the loop's deterministic random source.
func (l *Loop) Rand() *rand.Rand { return l.rng }

// Fired returns the number of events executed so far (useful in tests and
// as a runaway guard).
func (l *Loop) Fired() uint64 { return l.fired }

// Pending returns the number of events still queued (stopped Timers are
// gone).
func (l *Loop) Pending() int { return len(l.queue) }

// NextAt returns the timestamp of the earliest pending event, and false
// when nothing is queued. A loop pinned to wall time sleeps until then.
func (l *Loop) NextAt() (Time, bool) {
	if len(l.queue) == 0 {
		return 0, false
	}
	return l.queue[0].at, true
}

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// panics: that is always a logic error in a discrete-event model.
func (l *Loop) At(at Time, fn func()) *Event {
	if at < l.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, l.now))
	}
	e := &Event{at: at, seq: l.nextID, fn: fn}
	l.nextID++
	heap.Push(&l.queue, e)
	return e
}

// After schedules fn to run d after the current time.
func (l *Loop) After(d Time, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return l.At(l.now+d, fn)
}

// Step executes the next event, advancing the clock to its timestamp.
// It reports false when the queue is empty.
func (l *Loop) Step() bool {
	if len(l.queue) == 0 {
		return false
	}
	e := heap.Pop(&l.queue).(*Event)
	l.now = e.at
	l.fired++
	e.fn()
	return true
}

// Run executes events until the queue is empty.
func (l *Loop) Run() {
	for l.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline. Events scheduled beyond the deadline stay queued.
func (l *Loop) RunUntil(deadline Time) {
	for {
		if at, ok := l.NextAt(); !ok || at > deadline {
			break
		}
		l.Step()
	}
	if l.now < deadline {
		l.now = deadline
	}
}

// Timer is a resettable one-shot timer on a Loop, the building block for
// protocol retransmission and ack-delay timers. The timer owns its one
// Event: re-arming moves that event inside the loop's heap and stopping
// removes it, so neither allocates and a loop shared by many connections
// holds exactly one entry per armed timer.
type Timer struct {
	loop *Loop
	ev   Event
}

// NewTimer returns an unarmed timer invoking fn when it fires.
func NewTimer(loop *Loop, fn func()) *Timer {
	return &Timer{loop: loop, ev: Event{fn: fn, index: -1}}
}

// Reset (re)arms the timer to fire at absolute time at; deadlines already
// in the past fire as soon as possible. Among events with equal timestamps
// the timer fires in the order of its latest Reset.
func (t *Timer) Reset(at Time) {
	l := t.loop
	if at < l.now {
		at = l.now
	}
	t.ev.at = at
	t.ev.seq = l.nextID
	l.nextID++
	if t.ev.index >= 0 {
		heap.Fix(&l.queue, t.ev.index)
	} else {
		heap.Push(&l.queue, &t.ev)
	}
}

// ResetAfter (re)arms the timer to fire d from now.
func (t *Timer) ResetAfter(d Time) { t.Reset(t.loop.now + d) }

// Stop disarms the timer if pending.
func (t *Timer) Stop() {
	if t.ev.index >= 0 {
		heap.Remove(&t.loop.queue, t.ev.index)
	}
}

// Armed reports whether the timer is pending.
func (t *Timer) Armed() bool { return t.ev.index >= 0 }

// Deadline returns the pending fire time; valid only when Armed.
func (t *Timer) Deadline() Time {
	if !t.Armed() {
		return 0
	}
	return t.ev.at
}
