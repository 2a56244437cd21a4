package transport

import (
	"testing"

	"github.com/tacktp/tack/internal/sim"
)

func TestEstimateFirstSample(t *testing.T) {
	e := newEstimate(0)
	e.Update(ms(100), ms(50))
	if e.Smoothed() != ms(50) {
		t.Fatalf("srtt = %v, want 50ms", e.Smoothed())
	}
	if e.rttvar != ms(25) {
		t.Fatalf("rttvar = %v, want 25ms", e.rttvar)
	}
	if m, ok := e.Min(ms(100)); !ok || m != ms(50) {
		t.Fatalf("min = %v,%v", m, ok)
	}
}

func TestEstimateSmoothing(t *testing.T) {
	e := newEstimate(0)
	e.Update(0, ms(100))
	e.Update(ms(10), ms(200))
	// srtt = 7/8*100 + 1/8*200 = 112.5ms
	want := sim.Time(112.5 * float64(sim.Millisecond))
	if e.Smoothed() != want {
		t.Fatalf("srtt = %v, want %v", e.Smoothed(), want)
	}
	if e.Samples() != 2 {
		t.Fatalf("Samples = %d", e.Samples())
	}
}

func TestEstimateIgnoresNonPositive(t *testing.T) {
	e := newEstimate(0)
	e.Update(0, 0)
	e.Update(0, -ms(5))
	if e.Samples() != 0 {
		t.Fatal("non-positive samples must be ignored")
	}
}

func TestMinWindowExpiry(t *testing.T) {
	e := newEstimate(sim.Second)
	e.Update(0, ms(10))
	e.Update(ms(500), ms(40))
	if m, _ := e.Min(ms(600)); m != ms(10) {
		t.Fatalf("min = %v, want 10ms", m)
	}
	// After 1.2s the 10ms sample expired.
	if m, _ := e.Min(ms(1200)); m != ms(40) {
		t.Fatalf("min after expiry = %v, want 40ms", m)
	}
	if _, ok := e.Min(ms(5000)); ok {
		t.Fatal("empty window should report !ok")
	}
}

func TestRTO(t *testing.T) {
	e := newEstimate(0)
	if got := e.RTO(ms(200), ms(60000), ms(1000)); got != ms(1000) {
		t.Fatalf("fallback RTO = %v", got)
	}
	e.Update(0, ms(100))
	// srtt=100, var=50 → 300ms
	if got := e.RTO(ms(200), ms(60000), ms(1000)); got != ms(300) {
		t.Fatalf("RTO = %v, want 300ms", got)
	}
	if got := e.RTO(ms(400), ms(60000), 0); got != ms(400) {
		t.Fatalf("clamped RTO = %v, want 400ms", got)
	}
	if got := e.RTO(0, ms(250), 0); got != ms(250) {
		t.Fatalf("max-clamped RTO = %v, want 250ms", got)
	}
}

func TestLegacySamplerBiasUnderAckDelay(t *testing.T) {
	// True RTT is 100ms but ACKs are delayed 20ms at the receiver: the
	// legacy sampler over-estimates RTTmin by the ACK delay.
	s := newEstimate(0)
	for i := int64(0); i < 10; i++ {
		sent := ms(i * 50)
		ackArrival := sent + ms(100) + ms(20)
		s.Update(ackArrival, ackArrival-sent)
	}
	m, _ := s.Min(ms(1000))
	if m != ms(120) {
		t.Fatalf("legacy min = %v, want 120ms (biased)", m)
	}
}

func TestAdvancedTimingCorrectsAckDelay(t *testing.T) {
	// Same scenario through the advanced path: receiver echoes departure
	// and Δt, sender recovers the true 100ms RTT.
	rt := newReceiverTiming(0)
	st := newEstimate(0)
	owd := ms(50)
	for i := int64(0); i < 10; i++ {
		sent := ms(i * 50)
		rt.OnData(sent+owd, sent)
		tackAt := sent + owd + ms(20) // TACK delayed 20ms
		echo := rt.OnAckSent(tackAt)
		if !echo.Valid {
			t.Fatal("echo should be valid after data")
		}
		st.onEcho(tackAt+owd, echo)
	}
	m, _ := st.Min(ms(1000))
	if m != ms(100) {
		t.Fatalf("advanced min = %v, want exactly 100ms", m)
	}
}

func TestReceiverTimingPicksMinOWDPacket(t *testing.T) {
	rt := newReceiverTiming(1.0) // alpha=1: no smoothing, raw OWD
	// Three packets with OWDs 60, 40, 70ms.
	rt.OnData(ms(60), ms(0))
	rt.OnData(ms(140), ms(100))
	rt.OnData(ms(270), ms(200))
	echo := rt.OnAckSent(ms(300))
	if echo.Departure != ms(100) {
		t.Fatalf("echoed departure = %v, want 100ms (the min-OWD packet)", echo.Departure)
	}
	if echo.AckDelay != ms(160) { // 300 - 140
		t.Fatalf("ack delay = %v, want 160ms", echo.AckDelay)
	}
}

func TestReceiverTimingIntervalReset(t *testing.T) {
	rt := newReceiverTiming(1.0)
	rt.OnData(ms(60), 0)
	_ = rt.OnAckSent(ms(70))
	echo := rt.OnAckSent(ms(80))
	if echo.Valid {
		t.Fatal("second TACK without new data must carry no echo")
	}
}

func TestReceiverSmoothedAndMinOWD(t *testing.T) {
	rt := newReceiverTiming(0.5)
	if rt.smooth != nil {
		t.Fatal("no samples yet")
	}
	rt.OnData(ms(100), ms(0))   // owd 100
	rt.OnData(ms(250), ms(200)) // owd 50 → smoothed 75
	if rt.smooth == nil || *rt.smooth != ms(75) {
		t.Fatalf("smoothed OWD = %v want 75ms", rt.smooth)
	}
	if !rt.haveBest || rt.bestOWD != ms(75) {
		t.Fatalf("interval's min OWD = %v want 75ms (min of smoothed series)", rt.bestOWD)
	}
}

func TestSenderTimingIgnoresInvalidEcho(t *testing.T) {
	st := newEstimate(0)
	st.onEcho(ms(100), echo{})
	if st.Samples() != 0 {
		t.Fatal("invalid echo must not produce a sample")
	}
}

// TestBiasGapMatchesPaperShape reproduces the §5.2 microbenchmark shape:
// with a true 100ms floor and jittered queueing plus TACK delays, the legacy
// estimate should exceed the advanced estimate by a clear margin.
func TestBiasGapMatchesPaperShape(t *testing.T) {
	legacy := newEstimate(0)
	rt := newReceiverTiming(0)
	st := newEstimate(0)
	base := ms(50) // one-way
	for i := int64(0); i < 200; i++ {
		sent := ms(i * 10)
		jitter := sim.Time((i*7)%13) * sim.Millisecond // deterministic queue wobble
		arr := sent + base + jitter
		rt.OnData(arr, sent)
		if i%5 == 4 { // TACK every 5 packets → up to 40ms ack delay
			tackAt := arr + ms(8)
			echo := rt.OnAckSent(tackAt)
			st.onEcho(tackAt+base, echo)
			legacy.Update(tackAt+base, tackAt+base-sent)
		}
	}
	now := ms(3000)
	lm, _ := legacy.Min(now)
	am, _ := st.Min(now)
	if am >= lm {
		t.Fatalf("advanced %v should be below legacy %v", am, lm)
	}
	gap := float64(lm-am) / float64(am)
	if gap < 0.02 {
		t.Fatalf("bias gap %.1f%% implausibly small", gap*100)
	}
}

func TestSlidingMinTracksWindowedMinimum(t *testing.T) {
	m := newSlidingMin(3)
	if _, ok := m.Min(); ok {
		t.Fatal("empty window must report no minimum")
	}
	m.Update(ms(40))
	m.Update(ms(30))
	m.Update(ms(50))
	if got, _ := m.Min(); got != ms(30) {
		t.Fatalf("Min = %v, want 30ms", got)
	}
	// Two more samples push the 30ms sample out of the 3-wide window.
	m.Update(ms(45))
	m.Update(ms(60))
	if got, _ := m.Min(); got != ms(45) {
		t.Fatalf("Min after eviction = %v, want 45ms", got)
	}
	// Non-positive samples are ignored, not folded in as zeros.
	m.Update(0)
	m.Update(-ms(5))
	if got, _ := m.Min(); got != ms(45) {
		t.Fatalf("Min after bogus samples = %v, want 45ms", got)
	}
}
