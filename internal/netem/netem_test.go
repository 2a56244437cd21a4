package netem

import (
	"math"
	"testing"

	"github.com/tacktp/tack/internal/sim"
)

func TestPureDelayLine(t *testing.T) {
	loop := sim.NewLoop(1)
	var at sim.Time
	l := NewLink(loop, Config{Delay: 25 * sim.Millisecond}, func(p any, n int) { at = loop.Now() })
	l.Send("x", 1000)
	loop.Run()
	if at != 25*sim.Millisecond {
		t.Fatalf("delivered at %v, want 25ms", at)
	}
	if l.Delivered != 1 || l.Sent != 1 {
		t.Fatalf("counters: %+v", l)
	}
}

func TestSerializationDelay(t *testing.T) {
	loop := sim.NewLoop(1)
	var at sim.Time
	// 10 Mbit/s, 1250 B packet => 1 ms serialization, no propagation.
	l := NewLink(loop, Config{RateBps: 10e6}, func(p any, n int) { at = loop.Now() })
	l.Send("x", 1250)
	loop.Run()
	if at != sim.Millisecond {
		t.Fatalf("delivered at %v, want 1ms", at)
	}
}

func TestQueueingBackToBack(t *testing.T) {
	loop := sim.NewLoop(1)
	var times []sim.Time
	l := NewLink(loop, Config{RateBps: 10e6, Delay: 5 * sim.Millisecond},
		func(p any, n int) { times = append(times, loop.Now()) })
	for i := 0; i < 3; i++ {
		l.Send(i, 1250)
	}
	loop.Run()
	want := []sim.Time{6 * sim.Millisecond, 7 * sim.Millisecond, 8 * sim.Millisecond}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("delivery %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestOrderPreserved(t *testing.T) {
	loop := sim.NewLoop(1)
	var got []int
	l := NewLink(loop, Config{RateBps: 100e6, Delay: sim.Millisecond},
		func(p any, n int) { got = append(got, p.(int)) })
	for i := 0; i < 50; i++ {
		l.Send(i, 100+i*7)
	}
	loop.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("reordered delivery: %v", got)
		}
	}
}

func TestDropTailOverflow(t *testing.T) {
	loop := sim.NewLoop(1)
	delivered := 0
	l := NewLink(loop, Config{RateBps: 1e6, QueueBytes: 3000}, func(p any, n int) { delivered++ })
	for i := 0; i < 10; i++ {
		l.Send(i, 1500)
	}
	loop.Run()
	if l.Overflows == 0 {
		t.Fatal("no overflow on a 2-packet queue")
	}
	if delivered+l.Overflows != 10 {
		t.Fatalf("delivered %d + overflowed %d != 10", delivered, l.Overflows)
	}
}

func TestBernoulliLoss(t *testing.T) {
	loop := sim.NewLoop(1)
	delivered := 0
	l := NewLink(loop, Config{Delay: sim.Microsecond, Impair: Impairments{LossRate: 0.3}}, func(p any, n int) { delivered++ })
	const n = 10000
	for i := 0; i < n; i++ {
		l.Send(i, 100)
	}
	loop.Run()
	lossFrac := float64(l.Dropped) / n
	if math.Abs(lossFrac-0.3) > 0.03 {
		t.Fatalf("loss fraction %.3f far from 0.3", lossFrac)
	}
	if delivered != n-l.Dropped {
		t.Fatalf("delivered %d, dropped %d, sent %d", delivered, l.Dropped, n)
	}
}

func TestDefaultQueueBytes(t *testing.T) {
	c := Config{RateBps: 100e6, Delay: 100 * sim.Millisecond}
	// bdp = 100e6/8 * 0.1 = 1.25 MB
	if got := c.queueLimit(); got != 1250000 {
		t.Fatalf("queueLimit = %d, want 1250000", got)
	}
	small := Config{RateBps: 1e6, Delay: sim.Millisecond}
	if got := small.queueLimit(); got != 64*1024 {
		t.Fatalf("floor = %d, want 65536", got)
	}
	explicit := Config{QueueBytes: 777}
	if got := explicit.queueLimit(); got != 777 {
		t.Fatalf("explicit = %d, want 777", got)
	}
}

func TestSymmetricHelper(t *testing.T) {
	fwd, rev := Symmetric(500e6, 100*sim.Millisecond, 0, 0.01, 0.02)
	if fwd.Impair.LossRate != 0.01 || rev.Impair.LossRate != 0.02 {
		t.Fatal("loss rates not applied per direction")
	}
	if fwd.RateBps != rev.RateBps || fwd.Delay != rev.Delay {
		t.Fatal("symmetric rate/delay mismatch")
	}
}

func TestThroughputMatchesRate(t *testing.T) {
	loop := sim.NewLoop(1)
	var rcvBytes int64
	cfg := Config{RateBps: 50e6, Delay: 10 * sim.Millisecond, QueueBytes: 1 << 20}
	l := NewLink(loop, cfg, func(p any, n int) { rcvBytes += int64(n) })
	// Offer 2x the link rate for 1 second.
	var feed func()
	feed = func() {
		l.Send(nil, 1500)
		l.Send(nil, 1500)
		if loop.Now() < sim.Second {
			loop.After(sim.Time(1500*8)*sim.Time(1e9/50e6)*sim.Nanosecond, feed)
		}
	}
	loop.After(0, feed)
	loop.RunUntil(sim.Second + 20*sim.Millisecond)
	mbps := float64(rcvBytes) * 8 / 1e6
	if mbps < 45 || mbps > 51 {
		t.Fatalf("achieved %.1f Mbit/s over a 50 Mbit/s link", mbps)
	}
}
