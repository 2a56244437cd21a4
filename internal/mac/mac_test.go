package mac

import (
	"testing"

	"github.com/tacktp/tack/internal/phy"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/telemetry"
)

// saturate keeps a station's queue topped up with frames to dst.
func saturate(loop *sim.Loop, st, dst *Station, size int) {
	var refill func()
	refill = func() {
		for st.QueueLen() < 64 {
			st.Send(dst, size, nil)
		}
		loop.After(sim.Millisecond, refill)
	}
	loop.After(0, refill)
}

func TestSingleStationDelivers(t *testing.T) {
	loop := sim.NewLoop(1)
	m := NewMedium(loop, phy.Get(phy.Std80211g))
	a := m.AddStation("a", 0)
	b := m.AddStation("b", 0)
	got := 0
	b.Receive = func(f *Frame) { got += f.Size }
	for i := 0; i < 10; i++ {
		a.Send(b, 1518, nil)
	}
	loop.RunUntil(sim.Second)
	if got != 10*1518 {
		t.Fatalf("delivered %d bytes, want %d", got, 10*1518)
	}
	if a.Stats.FramesTx != 10 || a.Stats.Acquisitions != 10 {
		t.Fatalf("stats = %v", a.Stats)
	}
}

func TestPayloadHandleDelivered(t *testing.T) {
	loop := sim.NewLoop(1)
	m := NewMedium(loop, phy.Get(phy.Std80211g))
	a := m.AddStation("a", 0)
	b := m.AddStation("b", 0)
	var got any
	b.Receive = func(f *Frame) { got = f.Payload }
	a.Send(b, 100, "hello")
	loop.RunUntil(sim.Second)
	if got != "hello" {
		t.Fatalf("payload = %v", got)
	}
}

func TestSaturationGoodputNearPaperBaseline(t *testing.T) {
	// One saturated UDP-like sender should land near the paper Fig. 7
	// baselines: b=7, g=26, n=210, ac=590 Mbit/s.
	cases := []struct {
		std      phy.Standard
		min, max float64
	}{
		{phy.Std80211b, 5, 8.5},
		{phy.Std80211g, 21, 31},
		{phy.Std80211n, 170, 250},
		{phy.Std80211ac, 500, 680},
	}
	for _, c := range cases {
		loop := sim.NewLoop(2)
		m := NewMedium(loop, phy.Get(c.std))
		a := m.AddStation("a", 0)
		b := m.AddStation("b", 0)
		var rcv int64
		b.Receive = func(f *Frame) { rcv += int64(f.Size) }
		saturate(loop, a, b, 1518)
		dur := 2 * sim.Second
		loop.RunUntil(dur)
		mbps := float64(rcv) * 8 / dur.Seconds() / 1e6
		if mbps < c.min || mbps > c.max {
			t.Errorf("%v: saturated goodput %.1f Mbit/s outside [%v,%v]", c.std, mbps, c.min, c.max)
		}
	}
}

func TestContentionReducesDataThroughput(t *testing.T) {
	// Paper Fig. 3: a reverse ACK stream (small frames, frequent) should
	// depress forward data throughput, and more ACKs depress it more.
	run := func(ackEvery int) float64 {
		loop := sim.NewLoop(3)
		m := NewMedium(loop, phy.Get(phy.Std80211n))
		snd := m.AddStation("data", 0)
		rcv := m.AddStation("ack", 0)
		var dataBytes int64
		pending := 0
		rcv.Receive = func(f *Frame) {
			dataBytes += int64(f.Size)
			pending++
			for pending >= ackEvery {
				pending -= ackEvery
				rcv.Send(snd, 64, nil)
			}
		}
		snd.Receive = func(f *Frame) {}
		saturate(loop, snd, rcv, 1518)
		dur := sim.Second
		loop.RunUntil(dur)
		return float64(dataBytes) * 8 / dur.Seconds() / 1e6
	}
	t1 := run(1)   // ACK every frame
	t16 := run(16) // ACK every 16 frames
	if t16 <= t1 {
		t.Fatalf("thinning ACKs did not help: 1:1=%.1f, 16:1=%.1f Mbit/s", t1, t16)
	}
	if (t16-t1)/t16 < 0.03 {
		t.Fatalf("contention effect implausibly small: 1:1=%.1f, 16:1=%.1f", t1, t16)
	}
}

func TestCollisionsHappenUnderContention(t *testing.T) {
	loop := sim.NewLoop(4)
	m := NewMedium(loop, phy.Get(phy.Std80211g))
	m.Tracer = telemetry.New()
	a := m.AddStation("a", 0)
	b := m.AddStation("b", 0)
	c := m.AddStation("c", 0)
	c.Receive = func(f *Frame) {}
	saturate(loop, a, c, 1518)
	saturate(loop, b, c, 1518)
	loop.RunUntil(2 * sim.Second)
	if a.Stats.Collisions+b.Stats.Collisions == 0 {
		t.Fatal("two saturated stations never collided")
	}
	traced := 0
	for _, e := range m.Tracer.Events() {
		if e.Kind == telemetry.KindMACCollision {
			if e.Aux == 0 {
				t.Fatal("a collision wasted no airtime")
			}
			traced++
		}
	}
	if traced == 0 {
		t.Fatal("collisions not traced")
	}
}

func TestFairnessBetweenTwoSaturatedStations(t *testing.T) {
	loop := sim.NewLoop(5)
	m := NewMedium(loop, phy.Get(phy.Std80211g))
	a := m.AddStation("a", 0)
	b := m.AddStation("b", 0)
	c := m.AddStation("c", 0)
	var fromA, fromB int64
	c.Receive = func(f *Frame) {
		if f.Payload == "a" {
			fromA += int64(f.Size)
		} else {
			fromB += int64(f.Size)
		}
	}
	refill := func(st *Station, tag string) {
		var fn func()
		fn = func() {
			for st.QueueLen() < 64 {
				st.Send(c, 1518, tag)
			}
			loop.After(sim.Millisecond, fn)
		}
		loop.After(0, fn)
	}
	refill(a, "a")
	refill(b, "b")
	loop.RunUntil(3 * sim.Second)
	ratio := float64(fromA) / float64(fromB)
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("DCF fairness broken: a/b = %.2f", ratio)
	}
}

func TestPERCausesRetries(t *testing.T) {
	loop := sim.NewLoop(6)
	m := NewMedium(loop, phy.Get(phy.Std80211g))
	m.PER = 0.3
	a := m.AddStation("a", 0)
	b := m.AddStation("b", 0)
	got := 0
	b.Receive = func(f *Frame) { got++ }
	for i := 0; i < 50; i++ {
		a.Send(b, 1518, nil)
	}
	loop.RunUntil(5 * sim.Second)
	if got != 50 {
		t.Fatalf("delivered %d/50 frames despite MAC retries", got)
	}
	if a.Stats.Retries == 0 {
		t.Fatal("PER=0.3 produced no retries")
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	loop := sim.NewLoop(7)
	m := NewMedium(loop, phy.Get(phy.Std80211b))
	a := m.AddStation("a", 10)
	b := m.AddStation("b", 0)
	b.Receive = func(f *Frame) {}
	for i := 0; i < 100; i++ {
		a.Send(b, 1518, nil)
	}
	if a.Stats.Drops == 0 {
		t.Fatal("overfilling a 10-frame queue did not drop")
	}
	loop.RunUntil(sim.Second)
}

func TestAggregationOnlyToSameDestination(t *testing.T) {
	loop := sim.NewLoop(8)
	m := NewMedium(loop, phy.Get(phy.Std80211n))
	a := m.AddStation("a", 0)
	b := m.AddStation("b", 0)
	c := m.AddStation("c", 0)
	gotB, gotC := 0, 0
	b.Receive = func(f *Frame) { gotB++ }
	c.Receive = func(f *Frame) { gotC++ }
	// Interleave destinations: aggregates must split at the boundary.
	for i := 0; i < 4; i++ {
		a.Send(b, 1500, nil)
	}
	for i := 0; i < 4; i++ {
		a.Send(c, 1500, nil)
	}
	loop.RunUntil(sim.Second)
	if gotB != 4 || gotC != 4 {
		t.Fatalf("delivered b=%d c=%d, want 4/4", gotB, gotC)
	}
	// 8 frames, same-destination aggregation => exactly 2 acquisitions.
	if a.Stats.Acquisitions != 2 {
		t.Fatalf("acquisitions = %d, want 2 (one per destination)", a.Stats.Acquisitions)
	}
}

func TestNoAggregationOn80211g(t *testing.T) {
	loop := sim.NewLoop(9)
	m := NewMedium(loop, phy.Get(phy.Std80211g))
	a := m.AddStation("a", 0)
	b := m.AddStation("b", 0)
	b.Receive = func(f *Frame) {}
	for i := 0; i < 5; i++ {
		a.Send(b, 1500, nil)
	}
	loop.RunUntil(sim.Second)
	if a.Stats.Acquisitions != 5 {
		t.Fatalf("acquisitions = %d, want 5 (no aggregation on g)", a.Stats.Acquisitions)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (int64, int) {
		loop := sim.NewLoop(99)
		m := NewMedium(loop, phy.Get(phy.Std80211n))
		a := m.AddStation("a", 0)
		b := m.AddStation("b", 0)
		var rcv int64
		b.Receive = func(f *Frame) {
			rcv += int64(f.Size)
			b.Send(a, 64, nil)
		}
		a.Receive = func(f *Frame) {}
		saturate(loop, a, b, 1518)
		loop.RunUntil(sim.Second)
		return rcv, a.Stats.Collisions
	}
	r1, c1 := run()
	r2, c2 := run()
	if r1 != r2 || c1 != c2 {
		t.Fatalf("simulation not deterministic: (%d,%d) vs (%d,%d)", r1, c1, r2, c2)
	}
}
