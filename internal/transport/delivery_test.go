package transport

import (
	"math"
	"testing"

	"github.com/tacktp/tack/internal/sim"
)

func TestDeliveryEstimatorIntervalRate(t *testing.T) {
	e := newDeliveryEstimator(sim.Second)
	// 3 packets of 1250 B over a 3 ms interval: 10 Mbit/s throughput.
	e.OnDeliver(0, 1250)
	e.OnDeliver(sim.Millisecond, 1250)
	e.OnDeliver(2*sim.Millisecond, 1250)
	s := e.EndInterval(3 * sim.Millisecond)
	if s.Bytes != 3750 || s.Packets != 3 {
		t.Fatalf("sample = %+v", s)
	}
	if got := e.MaxBps(3 * sim.Millisecond); math.Abs(got-10e6) > 1 {
		t.Fatalf("MaxBps = %v, want 10e6", got)
	}
	// A slower second interval must not lower the max.
	e.OnDeliver(10*sim.Millisecond, 1250)
	e.OnDeliver(20*sim.Millisecond, 1250)
	e.EndInterval(23 * sim.Millisecond)
	if got := e.MaxBps(23 * sim.Millisecond); math.Abs(got-10e6) > 1 {
		t.Fatalf("MaxBps after slow interval = %v, want 10e6", got)
	}
}

func TestDeliveryEstimatorEmptyInterval(t *testing.T) {
	e := newDeliveryEstimator(sim.Second)
	s := e.EndInterval(sim.Millisecond)
	if s.Bytes != 0 {
		t.Fatalf("empty interval bytes = %d", s.Bytes)
	}
	if got := e.MaxBps(sim.Millisecond); got != 0 {
		t.Fatalf("MaxBps with no data = %v, want 0", got)
	}
	if (deliverySample{Bytes: 100, Elapsed: 0}).IntervalBps() != 0 {
		t.Fatal("zero elapsed should give 0 rate")
	}
	// Single packet: degenerate interval, no sample.
	e.OnDeliver(2*sim.Millisecond, 1250)
	e.EndInterval(4 * sim.Millisecond)
	if got := e.MaxBps(4 * sim.Millisecond); got != 0 {
		t.Fatalf("single-packet MaxBps = %v, want 0", got)
	}
}

func TestDeliveryEstimatorWindowExpiry(t *testing.T) {
	e := newDeliveryEstimator(10 * sim.Millisecond)
	e.OnDeliver(0, 12500)
	e.OnDeliver(sim.Millisecond, 12500)
	e.EndInterval(2 * sim.Millisecond) // 100 Mbit/s interval
	if got := e.MaxBps(2 * sim.Millisecond); got == 0 {
		t.Fatal("expected a live sample")
	}
	if got := e.MaxBps(20 * sim.Millisecond); got != 0 {
		t.Fatalf("expired MaxBps = %v, want 0", got)
	}
}
