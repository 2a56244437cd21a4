package cc

import (
	"testing"

	"github.com/tacktp/tack/internal/sim"
)

func ms(n int64) sim.Time { return sim.Time(n) * sim.Millisecond }

func TestRegistryLists(t *testing.T) {
	names := Names()
	want := map[string]bool{"reno": true, "cubic": true, "vegas": true, "bbr": true, "copa": true, "pcc": true, "static": true}
	got := map[string]bool{}
	for _, n := range names {
		got[n] = true
	}
	for n := range want {
		if !got[n] {
			t.Errorf("controller %q not registered", n)
		}
	}
	if _, err := New("bbr"); err != nil {
		t.Fatal(err)
	}
	if _, err := New("nope"); err == nil {
		t.Fatal("unknown controller should error")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register should panic")
		}
	}()
	Register("reno", func() Controller { return nil })
}

func TestRenoSlowStartDoubles(t *testing.T) {
	r := NewReno()
	start := r.CWND()
	// Ack a full window: slow start should double it.
	r.OnAck(Ack{Now: ms(10), Bytes: start, SRTT: ms(50)})
	if r.CWND() != 2*start {
		t.Fatalf("cwnd = %d, want %d", r.CWND(), 2*start)
	}
}

func TestRenoCongestionAvoidanceLinear(t *testing.T) {
	r := NewReno()
	r.OnLoss(Loss{Now: 0}) // forces ssthresh = cwnd/2, cwnd = ssthresh
	w := r.CWND()
	// One full window of acks → exactly one MSS growth.
	r.OnAck(Ack{Now: ms(10), Bytes: w, SRTT: ms(50)})
	if r.CWND() != w+MSS {
		t.Fatalf("cwnd = %d, want %d", r.CWND(), w+MSS)
	}
}

func TestRenoLossHalves(t *testing.T) {
	r := NewReno()
	r.OnAck(Ack{Now: ms(1), Bytes: 100 * MSS})
	w := r.CWND()
	r.OnLoss(Loss{Now: ms(2)})
	if r.CWND() != w/2 {
		t.Fatalf("cwnd after loss = %d, want %d", r.CWND(), w/2)
	}
	r.OnLoss(Loss{Now: ms(3), Timeout: true})
	if r.CWND() != 2*MSS {
		t.Fatalf("cwnd after timeout = %d, want 2 MSS", r.CWND())
	}
}

func TestRenoAppLimitedNoGrowth(t *testing.T) {
	r := NewReno()
	w := r.CWND()
	r.OnAck(Ack{Now: ms(1), Bytes: 10 * MSS, AppLimited: true})
	if r.CWND() != w {
		t.Fatal("app-limited ack should not grow cwnd")
	}
}

func TestCubicRecoversTowardWmax(t *testing.T) {
	c := NewCubic()
	// Grow to ~100 MSS then lose.
	c.OnAck(Ack{Now: ms(1), Bytes: 100 * MSS, SRTT: ms(50)})
	wBefore := c.CWND()
	c.OnLoss(Loss{Now: ms(2)})
	if got := c.CWND(); got >= wBefore || got < int(float64(wBefore)*0.65) {
		t.Fatalf("cubic loss response: %d from %d, want ~0.7x", got, wBefore)
	}
	// Ack steadily for several seconds: window should approach/exceed Wmax.
	now := ms(10)
	for i := 0; i < 2000 && c.CWND() < wBefore; i++ {
		c.OnAck(Ack{Now: now, Bytes: 10 * MSS, SRTT: ms(50)})
		now += ms(10)
	}
	if c.CWND() < wBefore {
		t.Fatalf("cubic never recovered: %d < %d after %v", c.CWND(), wBefore, now)
	}
}

func TestCubicTimeoutCollapses(t *testing.T) {
	c := NewCubic()
	c.OnAck(Ack{Now: ms(1), Bytes: 100 * MSS, SRTT: ms(50)})
	c.OnLoss(Loss{Now: ms(2), Timeout: true})
	if c.CWND() != 2*MSS {
		t.Fatalf("cwnd = %d, want 2 MSS", c.CWND())
	}
}

func TestVegasBacksOffOnQueueing(t *testing.T) {
	v := NewVegas()
	// Slow start with no queueing.
	for i := int64(0); i < 20; i++ {
		v.OnAck(Ack{Now: ms(i * 50), Bytes: v.CWND(), SRTT: ms(50), MinRTT: ms(50)})
	}
	grown := v.CWND()
	if grown <= InitialWindow {
		t.Fatalf("vegas did not grow in slow start: %d", grown)
	}
	// Heavy queueing: srtt 100ms vs base 50ms → backlog >> beta → shrink.
	now := ms(2000)
	for i := 0; i < 10; i++ {
		v.OnAck(Ack{Now: now, Bytes: v.CWND(), SRTT: ms(100), MinRTT: ms(50)})
		now += ms(100)
	}
	if v.CWND() >= grown {
		t.Fatalf("vegas did not back off: %d >= %d", v.CWND(), grown)
	}
}

func TestVegasStableInBand(t *testing.T) {
	v := NewVegas()
	v.slowStart = false
	v.cwnd = 20 * MSS
	// backlog = cwnd*(1-base/srtt)/MSS: choose srtt so backlog ∈ (2,4):
	// 20*(1-50/58.5) ≈ 2.9.
	w := v.CWND()
	now := ms(0)
	for i := 0; i < 10; i++ {
		srtt := sim.Time(58.5 * float64(sim.Millisecond))
		v.OnAck(Ack{Now: now, Bytes: w, SRTT: srtt, MinRTT: ms(50)})
		now += ms(60)
	}
	if v.CWND() != w {
		t.Fatalf("vegas moved inside the [alpha,beta] band: %d -> %d", w, v.CWND())
	}
}

func TestBBRStartupToProbeBW(t *testing.T) {
	b := NewBBR()
	if b.State() != "startup" {
		t.Fatalf("initial state %s", b.State())
	}
	now := ms(0)
	// Deliver a plateaued 100 Mbit/s signal: BBR must exit startup, drain,
	// and settle in probebw.
	for i := 0; i < 100; i++ {
		now += ms(20)
		b.OnAck(Ack{Now: now, Bytes: 30 * MSS, RTT: ms(20), SRTT: ms(20), MinRTT: ms(20),
			DeliveryRate: 100e6, Inflight: 10 * MSS})
	}
	if b.State() != "probebw" {
		t.Fatalf("state = %s, want probebw", b.State())
	}
	// cwnd ≈ 2*BDP = 2 * 100e6/8*0.02 = 500 KB.
	wantBDP := int(100e6 / 8 * 0.02)
	if b.CWND() < wantBDP*3/2 || b.CWND() > wantBDP*5/2 {
		t.Fatalf("cwnd = %d, want ~2*BDP (%d)", b.CWND(), 2*wantBDP)
	}
	// Pacing rate must track the bandwidth estimate within the gain cycle.
	pr := b.PacingRate()
	if pr < 70e6 || pr > 130e6 {
		t.Fatalf("pacing rate = %.1f Mbit/s, want ~100", pr/1e6)
	}
}

func TestBBRGainCycleProbes(t *testing.T) {
	b := NewBBR()
	now := ms(0)
	seen := map[float64]bool{}
	for i := 0; i < 400; i++ {
		now += ms(20)
		b.OnAck(Ack{Now: now, Bytes: 30 * MSS, RTT: ms(20), SRTT: ms(20), MinRTT: ms(20),
			DeliveryRate: 100e6, Inflight: 20 * MSS})
		seen[b.pacingGain] = true
	}
	if !seen[1.25] || !seen[0.75] || !seen[1.0] {
		t.Fatalf("gain cycle incomplete: %v", seen)
	}
}

func TestBBRIgnoresAppLimitedSamples(t *testing.T) {
	b := NewBBR()
	b.OnAck(Ack{Now: ms(10), Bytes: MSS, RTT: ms(20), DeliveryRate: 500e6, AppLimited: true})
	if b.BtlBw() != 0 {
		t.Fatal("app-limited delivery sample polluted the bw filter")
	}
}

func TestBBRTimeoutCollapse(t *testing.T) {
	b := NewBBR()
	b.OnAck(Ack{Now: ms(10), Bytes: 30 * MSS, RTT: ms(20), DeliveryRate: 100e6})
	b.OnLoss(Loss{Now: ms(20), Timeout: true})
	if b.CWND() != 4*MSS {
		t.Fatalf("cwnd = %d, want 4 MSS", b.CWND())
	}
}

func TestCopaShrinksOnStandingQueue(t *testing.T) {
	c := NewCopa()
	// Exit slow start with queueing, then hold a big standing queue.
	now := ms(0)
	for i := 0; i < 50; i++ {
		now += ms(50)
		c.OnAck(Ack{Now: now, Bytes: c.CWND(), SRTT: ms(200), MinRTT: ms(50)})
	}
	shrunk := c.CWND()
	// target = 200/(0.5*150) ≈ 2.7 pkts → window should be small.
	if shrunk > 20*MSS {
		t.Fatalf("copa kept a big window (%d) despite standing queue", shrunk)
	}
}

func TestCopaGrowsWhenQueueEmpty(t *testing.T) {
	c := NewCopa()
	c.slow = false
	start := c.CWND()
	now := ms(0)
	for i := 0; i < 20; i++ {
		now += ms(50)
		c.OnAck(Ack{Now: now, Bytes: c.CWND(), SRTT: ms(51), MinRTT: ms(50)})
	}
	if c.CWND() <= start {
		t.Fatalf("copa did not grow with empty queue: %d", c.CWND())
	}
}

func TestPCCMovesRateUpWhenClean(t *testing.T) {
	p := NewPCC()
	r0 := p.rate
	now := ms(0)
	for i := 0; i < 200; i++ {
		now += ms(20)
		p.OnAck(Ack{Now: now, Bytes: 20 * MSS, SRTT: ms(100)})
	}
	if p.rate <= r0 {
		t.Fatalf("pcc rate did not increase without loss: %.0f -> %.0f", r0, p.rate)
	}
}

func TestPCCBacksOffOnLoss(t *testing.T) {
	p := NewPCC()
	p.rate = 50e6
	now := ms(0)
	for i := 0; i < 200; i++ {
		now += ms(20)
		p.OnAck(Ack{Now: now, Bytes: 5 * MSS, SRTT: ms(100)})
		p.OnLoss(Loss{Now: now, Bytes: 3 * MSS})
	}
	if p.rate >= 50e6 {
		t.Fatalf("pcc rate did not decrease under heavy loss: %.0f", p.rate)
	}
	p.OnLoss(Loss{Now: now, Timeout: true})
	if p.rate >= 25e6+1 {
		t.Fatalf("pcc timeout did not halve rate: %.0f", p.rate)
	}
}

func TestStaticFixedRate(t *testing.T) {
	s := NewStatic(42e6)
	s.OnAck(Ack{Bytes: 100 * MSS})
	s.OnLoss(Loss{Bytes: 100 * MSS, Timeout: true})
	if s.PacingRate() != 42e6 {
		t.Fatalf("rate = %v", s.PacingRate())
	}
	s.SetRate(7e6)
	if s.PacingRate() != 7e6 {
		t.Fatal("SetRate failed")
	}
	if s.CWND() < 1<<20 {
		t.Fatal("static window should be effectively unbounded")
	}
}

func TestAllControllersSurviveArbitraryFeedback(t *testing.T) {
	// Smoke: no controller may panic, return nonpositive cwnd, or a negative
	// pacing rate under adversarial event streams.
	for _, name := range Names() {
		ctrl, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		now := sim.Time(0)
		for i := 0; i < 500; i++ {
			now += ms(int64(i%17 + 1))
			switch i % 5 {
			case 0:
				ctrl.OnAck(Ack{Now: now, Bytes: MSS, RTT: ms(int64(i%300 + 1)), SRTT: ms(100), MinRTT: ms(10), DeliveryRate: float64(i) * 1e5, Inflight: i * 100})
			case 1:
				ctrl.OnAck(Ack{Now: now, Bytes: 100 * MSS, AppLimited: true})
			case 2:
				ctrl.OnLoss(Loss{Now: now, Bytes: MSS})
			case 3:
				ctrl.OnAck(Ack{Now: now})
			case 4:
				if i%55 == 4 {
					ctrl.OnLoss(Loss{Now: now, Bytes: 10 * MSS, Timeout: true})
				}
			}
			if ctrl.CWND() <= 0 {
				t.Fatalf("%s: nonpositive cwnd %d at step %d", name, ctrl.CWND(), i)
			}
			if ctrl.PacingRate() < 0 {
				t.Fatalf("%s: negative pacing rate at step %d", name, i)
			}
		}
	}
}

// loopbackFeedback feeds b acknowledgments 1–1.2 ms apart over a 40 µs
// path, each reporting one interval's delivery at a rate rising from 10 to
// 408 MB/s — a TACK flow on loopback, where the α floor makes the ack
// interval 25× RTTmin — and returns the window after each.
func loopbackFeedback(b *BBR, interval sim.Time) []int {
	var trace []int
	now := ms(1)
	for i := 0; i < 200; i++ {
		rate := 10e6 + float64(i)*2e6 // bytes/s
		now += ms(1) + sim.Time(i%3)*100*sim.Microsecond
		b.OnAck(Ack{Now: now, Bytes: int(rate / 1000), RTT: 40 * sim.Microsecond, SRTT: 40 * sim.Microsecond,
			MinRTT: 40 * sim.Microsecond, DeliveryRate: rate * 8, Inflight: int(rate / 1000), AckInterval: interval})
		trace = append(trace, b.CWND())
	}
	return trace
}

// TestBBRWindowCoversAckInterval: told that feedback comes every
// millisecond, BBR holds at least what one interval delivers. Without it
// the window is 2·BDP over RTTmin plus a 64-MSS aggregation cap, a third
// of what the flow needs.
func TestBBRWindowCoversAckInterval(t *testing.T) {
	trace := loopbackFeedback(NewBBR(), sim.Millisecond)
	perInterval := int(408e6 / 1000)
	if got := trace[len(trace)-1]; got < perInterval || got <= 68*MSS {
		t.Fatalf("cwnd %d B, want at least one interval's delivery (%d B) and above 68 MSS", got, perInterval)
	}
}

// TestBBRZeroAckIntervalKeepsWindowTrace: with AckInterval 0 (legacy
// acknowledgments) the window follows the trace it had before the ack
// clock existed, value for value.
func TestBBRZeroAckIntervalKeepsWindowTrace(t *testing.T) {
	want := []int{
		16000, 16000, 16000, 22000, 22000, 22000, 22000, 30000, 30000, 30000,
		30000, 38000, 38000, 38000, 38000, 38000, 48000, 48000, 48000, 48000,
		48000, 58000, 58000, 58000, 58000, 58000, 68000, 68000, 68000, 68000,
		68000, 68000, 80000, 80080, 80240, 80400, 80560, 80720, 92880, 93040,
		93200, 93360, 93520, 93680,
	}
	// From ack 44 the aggregation cap holds and the BDP term grows by
	// 2 · 2 MB/s · 40 µs = 160 B per acknowledgment.
	for v := 103840; len(want) < 200; v += 160 {
		want = append(want, v)
	}
	got := loopbackFeedback(NewBBR(), 0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cwnd after ack %d = %d, want %d", i, got[i], want[i])
		}
	}
}
