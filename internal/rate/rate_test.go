package rate

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/tacktp/tack/internal/sim"
)

func TestMaxFilterBasics(t *testing.T) {
	f := NewMaxFilter(10 * sim.Millisecond)
	if got := f.Update(0, 5); got != 5 {
		t.Fatalf("max = %v, want 5", got)
	}
	if got := f.Update(sim.Millisecond, 3); got != 5 {
		t.Fatalf("max = %v, want 5", got)
	}
	if got := f.Update(2*sim.Millisecond, 9); got != 9 {
		t.Fatalf("max = %v, want 9", got)
	}
}

func TestMaxFilterExpiry(t *testing.T) {
	f := NewMaxFilter(10 * sim.Millisecond)
	f.Update(0, 9)
	f.Update(5*sim.Millisecond, 4)
	// At t=11ms the 9 (from t=0) has left the window.
	if got := f.Get(11 * sim.Millisecond); got != 4 {
		t.Fatalf("max after expiry = %v, want 4", got)
	}
	if !f.Empty(100 * sim.Millisecond) {
		t.Fatal("filter should be empty after window passes")
	}
	if got := f.Get(200 * sim.Millisecond); got != 0 {
		t.Fatalf("empty max = %v, want 0", got)
	}
}

func TestMinFilterBasics(t *testing.T) {
	f := NewMinFilter(10 * sim.Millisecond)
	f.Update(0, 5)
	if got := f.Update(sim.Millisecond, 8); got != 5 {
		t.Fatalf("min = %v, want 5", got)
	}
	if got := f.Update(2*sim.Millisecond, 2); got != 2 {
		t.Fatalf("min = %v, want 2", got)
	}
	// The 2 expires at t=13ms (>= 2+10+1); the 8 was evicted by the 2, so empty... no:
	// deque after Update(2ms,2) holds only {2ms:2}; at 13ms it's gone.
	if !f.Empty(13 * sim.Millisecond) {
		t.Fatal("min filter should be empty at 13ms")
	}
}

func TestMinFilterTracksNewMinAfterExpiry(t *testing.T) {
	f := NewMinFilter(10 * sim.Millisecond)
	f.Update(0, 1)
	f.Update(sim.Millisecond, 7)
	f.Update(2*sim.Millisecond, 5)
	// window [1ms..11ms): the 1 at t=0 expired, remaining mins are 7 evicted? No:
	// deque holds increasing values: after updates deque = {0:1, 1ms:7}? The 5 evicts 7 -> {0:1, 2ms:5}.
	if got := f.Get(11 * sim.Millisecond); got != 5 {
		t.Fatalf("min after expiry = %v, want 5", got)
	}
}

func TestSetWindow(t *testing.T) {
	f := NewMaxFilter(100 * sim.Millisecond)
	f.Update(0, 9)
	f.SetWindow(sim.Millisecond)
	if got := f.Get(50 * sim.Millisecond); got != 0 {
		t.Fatalf("after shrinking window, max = %v, want 0", got)
	}
}

// Property: the filters agree with a brute-force window scan.
func TestQuickFiltersMatchBruteForce(t *testing.T) {
	type obs struct {
		DtMs uint8
		Val  uint16
	}
	f := func(observations []obs, windowMs uint8) bool {
		window := sim.Time(int64(windowMs)+1) * sim.Millisecond
		maxF := NewMaxFilter(window)
		minF := NewMinFilter(window)
		var hist []sample
		now := sim.Time(0)
		for _, o := range observations {
			now += sim.Time(o.DtMs) * sim.Millisecond
			v := float64(o.Val)
			gotMax := maxF.Update(now, v)
			gotMin := minF.Update(now, v)
			hist = append(hist, sample{at: now, val: v})
			wantMax, wantMin := math.Inf(-1), math.Inf(1)
			for _, h := range hist {
				if h.at >= now-window {
					wantMax = math.Max(wantMax, h.val)
					wantMin = math.Min(wantMin, h.val)
				}
			}
			if gotMax != wantMax || gotMin != wantMin {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
