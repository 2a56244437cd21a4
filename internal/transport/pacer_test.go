package transport

import (
	"testing"

	"github.com/tacktp/tack/internal/sim"
)

func TestBucketStartsFull(t *testing.T) {
	p := newPacer(10e6, 3000)
	if !p.CanSend(0, 3000) {
		t.Fatal("fresh pacer should allow a full burst")
	}
	if p.CanSend(0, 3001) {
		t.Fatal("burst bound not enforced")
	}
}

func TestRefillAtRate(t *testing.T) {
	p := newPacer(10e6, 1500) // 10 Mbit/s = 1250 B/ms
	p.OnSend(0, 1500)
	if p.CanSend(0, 1500) {
		t.Fatal("tokens not debited")
	}
	// After 1.21 ms, 1500 bytes accrued (with float rounding margin).
	if !p.CanSend(sim.Time(1.21*float64(sim.Millisecond)), 1500) {
		t.Fatal("refill too slow")
	}
}

func TestNextSendTime(t *testing.T) {
	p := newPacer(12e6, 1500) // 12 Mbit/s = 1 ms per 1500 B
	p.OnSend(0, 1500)         // empty the bucket
	next := p.NextSendTime(0, 1500)
	if next < sim.Millisecond || next > sim.Millisecond+sim.Microsecond {
		t.Fatalf("NextSendTime = %v, want ~1ms", next)
	}
	// With credit available it must return now.
	if got := p.NextSendTime(10*sim.Millisecond, 1500); got != 10*sim.Millisecond {
		t.Fatalf("NextSendTime with credit = %v, want now", got)
	}
}

func TestNegativeBalanceDelaysNext(t *testing.T) {
	p := newPacer(12e6, 1500)
	p.OnSend(0, 1500)
	p.OnSend(0, 1500) // balance now -1500
	next := p.NextSendTime(0, 1500)
	if next < 2*sim.Millisecond {
		t.Fatalf("NextSendTime = %v, want >= 2ms after double debit", next)
	}
}

func TestSetRateBanksCredit(t *testing.T) {
	p := newPacer(8e6, 1500) // 1000 B/ms
	p.OnSend(0, 1500)
	p.SetRate(sim.Millisecond, 80e6) // credit so far: 1000 B
	// From 1ms at 10000 B/ms: need 2000 more bytes for a 1500B send?
	// tokens = -1500+1000 = -500... wait: bucket was 0 after OnSend? bucket
	// starts full(1500), OnSend leaves 0. After 1 ms at 8 Mbit/s => +1000.
	// Needs 500 more at 10000 B/ms = 50 µs.
	next := p.NextSendTime(sim.Millisecond, 1500)
	want := sim.Millisecond + 50*sim.Microsecond
	if next < want || next > want+sim.Microsecond {
		t.Fatalf("NextSendTime = %v, want ~%v", next, want)
	}
}

func TestZeroRateBlocks(t *testing.T) {
	p := newPacer(0, 1500)
	p.OnSend(0, 1500)
	if p.CanSend(sim.Second, 1) {
		t.Fatal("zero-rate pacer should never refill")
	}
	if next := p.NextSendTime(sim.Second, 1500); next <= sim.Second {
		t.Fatal("zero-rate NextSendTime should back off")
	}
}

func TestLongRunRateAccuracy(t *testing.T) {
	// Send as fast as the pacer allows for one second; goodput must match
	// the configured rate within 1%.
	p := newPacer(100e6, 1500)
	now := sim.Time(0)
	var sent int64
	for now < sim.Second {
		if p.CanSend(now, 1500) {
			p.OnSend(now, 1500)
			sent += 1500
		} else {
			now = p.NextSendTime(now, 1500)
		}
	}
	mbps := float64(sent) * 8 / 1e6
	if mbps < 99 || mbps > 101.1 {
		t.Fatalf("paced %v Mbit in 1s at 100 Mbit/s", mbps)
	}
}
