package telemetry

import (
	"strings"
	"sync"
	"testing"

	"github.com/tacktp/tack/internal/sim"
)

func ringEvent(i int) Event {
	return Event{Sim: sim.Time(i), Kind: KindDataSent, Flow: 7, Seq: uint64(i)}
}

func TestRingWraparoundOrdering(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 20; i++ {
		e := ringEvent(i)
		r.Put(&e)
	}
	if got := r.Total(); got != 20 {
		t.Fatalf("Total = %d, want 20", got)
	}
	events := r.Snapshot(nil)
	if len(events) != 8 {
		t.Fatalf("Snapshot returned %d events, want 8", len(events))
	}
	// Oldest surviving event is #12, newest #19, strictly in order.
	for i, e := range events {
		if want := uint64(12 + i); e.Seq != want {
			t.Fatalf("events[%d].Seq = %d, want %d", i, e.Seq, want)
		}
	}
}

func TestRingPartialFill(t *testing.T) {
	r := NewRing(16)
	for i := 0; i < 5; i++ {
		e := ringEvent(i)
		r.Put(&e)
	}
	events := r.Snapshot(nil)
	if len(events) != 5 {
		t.Fatalf("Snapshot returned %d events, want 5", len(events))
	}
	for i, e := range events {
		if e.Seq != uint64(i) {
			t.Fatalf("events[%d].Seq = %d, want %d", i, e.Seq, i)
		}
	}
	// Snapshot appends into a reused buffer without reallocating.
	big := make([]Event, 0, 16)
	out := r.Snapshot(big)
	if len(out) != 5 || cap(out) != 16 {
		t.Fatalf("Snapshot(dst) returned len=%d cap=%d, want len=5 cap=16", len(out), cap(out))
	}
}

func TestRingDefaultsAndNilSafety(t *testing.T) {
	if n := NewRing(0).size; n != DefaultRingSize {
		t.Fatalf("NewRing(0) cap = %d, want %d", n, DefaultRingSize)
	}
	var r *Ring
	e := ringEvent(1)
	r.Put(&e) // must not panic
	if r.Total() != 0 || r.Snapshot(nil) != nil {
		t.Fatal("nil ring should report empty")
	}
}

// TestRingConcurrentEmitAndSnapshot drives WithRing emitters against
// concurrent Snapshot calls under -race: the dump path must be safe
// while the datapath keeps recording.
func TestRingConcurrentEmitAndSnapshot(t *testing.T) {
	r := NewRing(32)
	tr := WithRing(r, nil)
	const workers, emits = 4, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < emits; i++ {
				tr.DataSent(sim.Time(i), uint32(w), uint64(i), uint64(i), 1200, false, 0)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for i := 0; ; i++ {
		events := r.Snapshot(nil)
		for j := range events {
			if len(events) > 0 && events[j].Kind != KindDataSent {
				t.Errorf("snapshot %d: torn event kind %d", i, events[j].Kind)
			}
		}
		select {
		case <-done:
			if got := r.Total(); got != workers*emits {
				t.Fatalf("Total = %d, want %d", got, workers*emits)
			}
			return
		default:
		}
	}
}

// failAfterWriter errors every write after the first n.
type failAfterWriter struct {
	n      int
	writes int
}

type errSentinel struct{}

func (errSentinel) Error() string { return "sink broke" }

func (w *failAfterWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.n {
		return 0, errSentinel{}
	}
	return len(p), nil
}

// TestStreamingTracerShortCircuitsAfterWriteError pins the streaming
// failure contract: the first write error latches, later events are
// dropped (counted, not re-attempted against the dead writer), and Err
// reports the original error.
func TestStreamingTracerShortCircuitsAfterWriteError(t *testing.T) {
	w := &failAfterWriter{n: 2}
	tr := NewStreaming(w)
	reg := NewRegistry()
	tr.CountDrops(reg.Counter("telemetry.dropped_events"))

	for i := 0; i < 10; i++ {
		tr.DataSent(sim.Time(i), 1, uint64(i), uint64(i), 1200, false, 0)
	}
	if err := tr.Err(); err == nil || !strings.Contains(err.Error(), "sink broke") {
		t.Fatalf("Err = %v, want latched sink error", err)
	}
	// Writes 1..2 succeeded, write 3 errored, 4..10 must never reach the
	// writer again.
	if w.writes != 3 {
		t.Fatalf("writer saw %d writes, want 3 (short-circuit after first error)", w.writes)
	}
	// The errored event plus the 7 short-circuited ones are dropped.
	if got := reg.Counter("telemetry.dropped_events").Value(); got != 8 {
		t.Fatalf("dropped_events counter = %d, want 8", got)
	}
}

// TestWithRingForwards checks the ring tracer tees into both the ring
// and the forward tracer.
func TestWithRingForwards(t *testing.T) {
	fwd := New()
	fwd.SetWallClock(nil)
	r := NewRing(4)
	tr := WithRing(r, fwd)
	tr.DataSent(1, 9, 100, 1, 1200, false, 0)
	if r.Total() != 1 {
		t.Fatalf("ring saw %d events, want 1", r.Total())
	}
	if got := len(fwd.Events()); got != 1 {
		t.Fatalf("forward tracer saw %d events, want 1", got)
	}
	if fwd.Events()[0].Flow != 9 {
		t.Fatalf("forwarded flow = %d, want 9", fwd.Events()[0].Flow)
	}
}

// Storage follows use: none before the first event, never more than the
// capacity, gone after Release — with ordering and Total intact throughout.
func TestRingGrowsOnDemandAndReleases(t *testing.T) {
	r := NewRing(64)
	if cap(r.buf) != 0 {
		t.Fatalf("fresh ring holds storage for %d events", cap(r.buf))
	}
	put := func(from, to int) {
		for i := from; i < to; i++ {
			r.Put(&Event{Seq: uint64(i)})
		}
	}
	check := func(wantFirst, wantLast int) {
		t.Helper()
		got := r.Snapshot(nil)
		if len(got) != wantLast-wantFirst+1 || len(r.buf) != len(got) {
			t.Fatalf("holds %d events (buf %d), want %d", len(got), len(r.buf), wantLast-wantFirst+1)
		}
		for i, e := range got {
			if e.Seq != uint64(wantFirst+i) {
				t.Fatalf("event %d has Seq %d, want %d", i, e.Seq, wantFirst+i)
			}
		}
	}
	put(0, 5)
	if c := cap(r.buf); c < 5 || c > 16 {
		t.Fatalf("5 events took storage for %d", c)
	}
	check(0, 4)
	put(5, 200) // through every growth step and three times around
	if c := cap(r.buf); c < 64 || c >= 128 {
		t.Fatalf("storage for %d events; want 64 (plus allocator rounding)", c)
	}
	check(136, 199)
	r.Release()
	if r.buf != nil || r.Total() != 200 || r.Snapshot(nil) != nil {
		t.Fatalf("after Release: storage %d, Total %d", cap(r.buf), r.Total())
	}
	put(200, 203)
	check(200, 202)
	if n := testing.AllocsPerRun(100, func() { put(0, 64) }); n > 1 {
		t.Fatalf("a full ring allocates %v times per 64 events", n)
	}
}
