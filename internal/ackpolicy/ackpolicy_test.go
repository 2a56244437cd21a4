package ackpolicy

import (
	"testing"

	"github.com/tacktp/tack/internal/sim"
)

func ms(n int64) sim.Time { return sim.Time(n) * sim.Millisecond }

// drive feeds a constant-bitrate stream of full-sized packets through a
// policy for dur and returns the number of ACKs emitted (data-driven and
// timer-driven).
func drive(p Policy, bwBps float64, dur sim.Time) int {
	interval := sim.Time(float64(MSS*8) / bwBps * 1e9)
	acks := 0
	now := sim.Time(0)
	for now < dur {
		fire := p.OnData(now, MSS)
		if fire {
			p.OnAckSent(now)
			acks++
		} else if d := p.Deadline(now); d > 0 && d <= now+interval {
			// Timer would fire before the next packet arrives.
			p.OnAckSent(d)
			acks++
		}
		now += interval
	}
	return acks
}

func TestPerPacketAcksEverything(t *testing.T) {
	p := NewPerPacket()
	if got := drive(p, 12e6, sim.Second); got != 1000 {
		t.Fatalf("acks = %d, want 1000 (one per packet at 12 Mbit/s)", got)
	}
}

func TestByteCountHalvesAcks(t *testing.T) {
	p := NewByteCount(2)
	if got := drive(p, 12e6, sim.Second); got != 500 {
		t.Fatalf("acks = %d, want 500", got)
	}
	p8 := NewByteCount(8)
	if got := drive(p8, 12e6, sim.Second); got != 125 {
		t.Fatalf("acks = %d, want 125", got)
	}
}

func TestByteCountFrequencyScalesWithBandwidth(t *testing.T) {
	// Eq. 1: f_b = bw/(L·MSS) — unbounded growth with bw.
	lo := drive(NewByteCount(2), 12e6, sim.Second)
	hi := drive(NewByteCount(2), 120e6, sim.Second)
	if hi < lo*9 {
		t.Fatalf("byte-counting frequency did not scale: %d vs %d", lo, hi)
	}
}

func TestDelayedAckTimerBoundsTail(t *testing.T) {
	p := NewDelayed(40 * sim.Millisecond)
	// A single packet (below L·MSS): no immediate ack, timer at +40ms.
	if p.OnData(ms(10), MSS) {
		t.Fatal("single packet should not trigger delayed ack")
	}
	if d := p.Deadline(ms(10)); d != ms(50) {
		t.Fatalf("deadline = %v, want 50ms", d)
	}
	// Second full packet fires immediately.
	if !p.OnData(ms(20), MSS) {
		t.Fatal("second packet should trigger")
	}
	p.OnAckSent(ms(20))
	if d := p.Deadline(ms(20)); d != 0 {
		t.Fatalf("deadline after ack = %v, want none", d)
	}
}

func TestTACKAlphaFromRTTMin(t *testing.T) {
	p := NewTACK(4, 2)
	p.Update(0, ms(80))
	if p.alpha != ms(20) {
		t.Fatalf("alpha = %v, want RTTmin/beta = 20ms", p.alpha)
	}
	p.Update(0, 0)
	if p.alpha != ms(25) {
		t.Fatalf("fallback alpha = %v, want 25ms", p.alpha)
	}
	p.Update(0, sim.Microsecond)
	if p.alpha != sim.Millisecond {
		t.Fatalf("alpha floor = %v, want 1ms", p.alpha)
	}
}

func TestTACKPeriodicAtHighBDP(t *testing.T) {
	// bdp large: f_tack = β/RTTmin. RTTmin=80ms, β=4 → 50 Hz.
	p := NewTACK(4, 2)
	p.Update(0, ms(80))
	got := drive(p, 200e6, sim.Second)
	if got < 45 || got > 55 {
		t.Fatalf("tack acks = %d, want ~50 (periodic regime)", got)
	}
}

func TestTACKByteCountingAtLowBDP(t *testing.T) {
	// bw low: f_tack = bw/(L·MSS). bw=1.2 Mbit/s, L=2 → 50 Hz; the
	// periodic bound at RTTmin=10ms would allow 400 Hz.
	p := NewTACK(4, 2)
	p.Update(0, ms(10))
	got := drive(p, 1.2e6, sim.Second)
	if got < 45 || got > 55 {
		t.Fatalf("tack acks = %d, want ~50 (byte-counting regime)", got)
	}
}

func TestTACKMatchesEquation3AcrossRegimes(t *testing.T) {
	// Sweep bandwidths; measured frequency must track
	// min(bw/(L·MSS), β/RTTmin) within 20%.
	rttMin := ms(100)
	for _, bwMbps := range []float64{1, 5, 20, 100, 500} {
		p := NewTACK(4, 2)
		p.Update(0, rttMin)
		got := float64(drive(p, bwMbps*1e6, 2*sim.Second)) / 2
		fb := bwMbps * 1e6 / (2 * MSS * 8)
		fp := 4.0 / rttMin.Seconds()
		want := fb
		if fp < fb {
			want = fp
		}
		if got < want*0.8 || got > want*1.25 {
			t.Errorf("bw=%v Mbit/s: f=%.0f, want ~%.0f", bwMbps, got, want)
		}
	}
}

func TestTACKFrequencyNeverExceedsLegacy(t *testing.T) {
	// Paper insight 1: f_tack ≤ f_tcp for the same L, at every bandwidth.
	for _, bwMbps := range []float64{0.5, 2, 10, 50, 300} {
		for _, rtt := range []sim.Time{ms(10), ms(80), ms(200)} {
			tack := NewTACK(4, 2)
			tack.Update(0, rtt)
			legacy := NewByteCount(2)
			ft := drive(tack, bwMbps*1e6, sim.Second)
			fl := drive(legacy, bwMbps*1e6, sim.Second)
			if ft > fl+1 {
				t.Errorf("bw=%v rtt=%v: tack %d > legacy %d", bwMbps, rtt, ft, fl)
			}
		}
	}
}

func TestTACKTailIsBounded(t *testing.T) {
	p := NewTACK(4, 2)
	p.Update(0, ms(40))
	// One lonely sub-threshold packet must still get acknowledged within
	// TailDelay.
	if p.OnData(ms(5), 300) {
		t.Fatal("sub-threshold data must not ack immediately")
	}
	d := p.Deadline(ms(5))
	if d == 0 || d > ms(5)+TailDelay {
		t.Fatalf("tail deadline = %v, want <= %v", d, ms(5)+TailDelay)
	}
}

func TestTACKDeadlineAfterByteThreshold(t *testing.T) {
	p := NewTACK(4, 2)
	p.Update(0, ms(100)) // alpha = 25ms
	p.OnAckSent(ms(0))
	if p.OnData(ms(1), 2*MSS) {
		t.Fatal("byte threshold met but periodic spacing not elapsed")
	}
	if d := p.Deadline(ms(1)); d != ms(25) {
		t.Fatalf("deadline = %v, want lastAck+alpha = 25ms", d)
	}
}

func TestNames(t *testing.T) {
	for _, c := range []struct {
		p    Policy
		want string
	}{
		{NewPerPacket(), "perpacket"},
		{NewByteCount(4), "bytecount(L=4)"},
		{NewDelayed(0), "delayed"},
		{NewTACK(0, 0), "tack(beta=4,L=2)"},
	} {
		if c.p.Name() != c.want {
			t.Errorf("Name = %q, want %q", c.p.Name(), c.want)
		}
	}
}
