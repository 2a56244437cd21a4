package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/tacktp/tack/internal/sim"
)

// TestKindNames checks the wire-name mapping is total and reversible.
func TestKindNames(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "" {
			t.Fatalf("kind %d has no name", k)
		}
		if k != KindUnknown && KindByName(name) != k {
			t.Fatalf("KindByName(%q) = %v, want %v", name, KindByName(name), k)
		}
	}
	if KindByName("no-such-event") != KindUnknown {
		t.Fatal("unknown name should map to KindUnknown")
	}
	if TriggerName(TrigBytes) != "bytes" || TriggerName(200) != "unknown" {
		t.Fatal("trigger naming broken")
	}
}

// TestJSONLRoundtrip encodes a representative event set and decodes it back.
func TestJSONLRoundtrip(t *testing.T) {
	tr := New()
	tr.SetWallClock(func() int64 { return 42 })
	now := sim.Time(1500 * sim.Millisecond)
	tr.FlowParams(now, 7, false, 4, 2, 1439, 4)
	tr.DataSent(now+1, 7, 1000, 55, 1439, true, 12)
	tr.AckSent(now+2, 7, TrigTimer, 2000, 60, 3, 20*sim.Millisecond, 1.5e7)
	tr.AckReceived(now+3, 7, TrigLoss, 2000, 60, 2878, 21*sim.Millisecond, 1.4e7)
	tr.LossDeclared(now+4, 7, 40, 44, 5*sim.Millisecond)
	tr.LossEpisode(now+5, 7, 4317, 90000, false)
	tr.RTOFired(now+6, 7, 90000, 2)
	tr.CCUpdate(now+7, 7, 123456, 2.5e7, true)
	tr.RTTSync(now+8, 7, TrigHandshake, 50, 19*sim.Millisecond, 0.01)
	tr.RateSample(now+9, 7, 288000, 100*sim.Millisecond, 2.3e7)
	tr.MACTx(now+10, 1, 12, 17000, 2*sim.Millisecond, 9)
	tr.MACCollision(now+11, 0, 2, 3*sim.Millisecond, 4)
	tr.MACDrop(now+12, 1, TrigQueueFull, 1500)

	want := tr.Events()
	got, err := DecodeJSONL(bytes.NewReader(appendEvents(nil, want)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Sim != g.Sim || w.Wall != g.Wall || w.Kind != g.Kind || w.Flow != g.Flow ||
			w.Trigger != g.Trigger || w.Seq != g.Seq || w.PktSeq != g.PktSeq ||
			w.Len != g.Len || w.Aux != g.Aux ||
			math.Abs(w.Value-g.Value) > 1e-9*math.Abs(w.Value) {
			t.Fatalf("event %d: got %+v, want %+v", i, g, w)
		}
	}
}

// TestStreamingMatchesInMemory checks both sinks produce identical JSONL.
func TestStreamingMatchesInMemory(t *testing.T) {
	var streamed bytes.Buffer
	st := NewStreaming(&streamed)
	st.SetWallClock(nil)
	mem := New()
	mem.SetWallClock(nil)
	for i := 0; i < 50; i++ {
		now := sim.Time(i) * sim.Millisecond
		st.DataSent(now, 1, uint64(i)*1439, uint64(i), 1439, i%7 == 0, uint64(i/2))
		mem.DataSent(now, 1, uint64(i)*1439, uint64(i), 1439, i%7 == 0, uint64(i/2))
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if streamed.String() != string(appendEvents(nil, mem.Events())) {
		t.Fatal("streaming and in-memory encodings differ")
	}
	if len(mem.Events()) != 50 || len(st.Events()) != 0 {
		t.Fatalf("retention: mem=%d (want 50), streaming=%d (want 0)", len(mem.Events()), len(st.Events()))
	}
}

// appendEvents encodes events as JSON Lines onto b.
func appendEvents(b []byte, events []Event) []byte {
	for i := range events {
		b = AppendEvent(b, &events[i])
	}
	return b
}

// TestDecodeTolerant checks unknown events and blank lines survive decoding.
func TestDecodeTolerant(t *testing.T) {
	in := strings.NewReader(`{"t":1,"ev":"data_sent","len":10}

{"t":2,"ev":"future_event","seq":9}
{"t":3,"ev":"ack_sent","trig":2}
`)
	evs, err := DecodeJSONL(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[1].Kind != KindUnknown || evs[1].Seq != 9 {
		t.Fatalf("unknown event mangled: %+v", evs[1])
	}
	if evs[2].Trigger != TrigTimer {
		t.Fatalf("trigger lost: %+v", evs[2])
	}
}

// TestRegistry exercises instruments and snapshots.
func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	c.Inc()
	c.Add(4)
	if reg.Counter("c") != c {
		t.Fatal("counter identity not stable")
	}
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := reg.Gauge("g")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", g.Value())
	}
	h := reg.Histogram("h")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	snap := reg.Snapshot()
	if snap.Counters["c"] != 5 || snap.Gauges["g"] != 2.5 {
		t.Fatalf("snapshot scalars wrong: %+v", snap)
	}
	hs := snap.Histograms["h"]
	if hs.Count != 100 || hs.Min != 1 || hs.Max != 100 || hs.P50 < 49 || hs.P50 > 52 {
		t.Fatalf("snapshot histogram wrong: %+v", hs)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatal(err)
	}
}

// TestNilSafety checks every instrument and tracer entry point is a no-op
// on nil receivers — the un-instrumented default.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	var reg *Registry
	tr.Emit(Event{})
	tr.DataSent(1, 0, 0, 0, 0, false, 0)
	tr.SetWallClock(nil)
	if tr.Events() != nil || tr.Err() != nil {
		t.Fatal("nil tracer not inert")
	}
	c, g, h := reg.Counter("x"), reg.Gauge("x"), reg.Histogram("x")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry should hand out nil instruments")
	}
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil instruments not inert")
	}
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

// TestNoopPathAllocations asserts the un-instrumented path allocates
// nothing: the whole point of the nil-safe design is that production code
// can call emission helpers unconditionally.
func TestNoopPathAllocations(t *testing.T) {
	var tr *Tracer
	var c *Counter
	var g *Gauge
	var h *Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		tr.DataSent(1, 0, 10, 10, 1439, false, 0)
		tr.AckSent(2, 0, TrigBytes, 20, 20, 0, 0, 0)
		tr.CCUpdate(3, 0, 1, 1, false)
		c.Inc()
		g.Set(3.14)
		h.Observe(1)
	})
	if allocs != 0 {
		t.Fatalf("no-op telemetry path allocates %v per op, want 0", allocs)
	}
}

// BenchmarkNoopTracer measures the uninstrumented fast path (expect ~ns and
// 0 B/op with -benchmem).
func BenchmarkNoopTracer(b *testing.B) {
	var tr *Tracer
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.DataSent(sim.Time(i), 0, uint64(i), uint64(i), 1439, false, 0)
		c.Inc()
	}
}

// BenchmarkEmitStreaming measures the instrumented streaming encode path.
func BenchmarkEmitStreaming(b *testing.B) {
	tr := NewStreaming(discard{})
	tr.SetWallClock(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.DataSent(sim.Time(i), 0, uint64(i), uint64(i), 1439, false, 0)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
