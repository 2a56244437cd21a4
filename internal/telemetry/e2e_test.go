// End-to-end trace tests: run connections between sim-driven endpoints over
// simulated paths with a streaming tracer attached, decode the JSONL back, and check the analyzer
// reproduces the paper's Eq. 3 target f_tack = min(bw/(L·MSS), β/RTTmin)
// from the trace alone — in both regimes.
package telemetry_test

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"

	"github.com/tacktp/tack/internal/endpoint"
	"github.com/tacktp/tack/internal/experiments"
	"github.com/tacktp/tack/internal/mac"
	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/phy"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/telemetry"
	"github.com/tacktp/tack/internal/transport"
)

// traceFlow runs one TACK connection between two sim-driven endpoints for
// dur with a streaming tracer attached, over the path lay puts between their
// hosts, and returns the analyzed trace summary and the connection's id.
func traceFlow(t *testing.T, dur sim.Time, lay func(n *endpoint.SimNet, a, b net.IP, tr *telemetry.Tracer)) (*telemetry.TraceSummary, uint32) {
	t.Helper()
	var buf bytes.Buffer
	tr := telemetry.NewStreaming(&buf)
	tr.SetWallClock(nil) // deterministic traces: sim time only

	n := endpoint.NewSimNet(1, netem.Config{})
	a, b := n.Host(), n.Host()
	lay(n, a, b, tr)
	cfg := endpoint.Config{Transport: transport.Config{Mode: transport.ModeTACK, Tracer: tr, Metrics: telemetry.NewRegistry()}}
	srv, err := n.Endpoint(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := n.Endpoint(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := n.Dial(cli, srv.LocalAddr())
	if _, err := n.RunUntil(dur, nil); err != nil {
		t.Fatal(err)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	events, err := telemetry.DecodeJSONL(&buf)
	if err != nil {
		t.Fatalf("decoding written trace: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace is empty")
	}
	return telemetry.Analyze(events), c.ConnID()
}

// wlan puts hosts a and b on one 802.11 medium of standard std that traces
// into tr.
func wlan(std phy.Standard) func(n *endpoint.SimNet, a, b net.IP, tr *telemetry.Tracer) {
	return func(n *endpoint.SimNet, a, b net.IP, tr *telemetry.Tracer) {
		m := mac.NewMedium(n.Loop(), phy.Get(std))
		m.Tracer = tr
		experiments.WLANPath(n, a, b, m)
	}
}

// checkRegime asserts the single flow in the summary landed in the wanted
// Eq. 3 regime with achieved ACK frequency within 10% of the target.
func checkRegime(t *testing.T, s *telemetry.TraceSummary, regime string) *telemetry.FlowSummary {
	t.Helper()
	if len(s.Flows) != 1 {
		t.Fatalf("got %d flows, want 1", len(s.Flows))
	}
	f := s.Flows[0]
	if !strings.Contains(f.Regime, regime) {
		t.Errorf("regime = %q, want %q binding (achieved %.1f/s, periodic %.1f/s, byte %.1f/s)",
			f.Regime, regime, f.AchievedAckHz, f.TargetPeriodicHz, f.TargetByteHz)
	}
	e := f.AckFrequencyError()
	if e < 0 {
		t.Fatalf("no ack-frequency estimate (tacks=%d, target=%.1f/s)", f.TACKs, f.TargetAckHz)
	}
	if e >= 0.10 {
		t.Errorf("ack frequency off target: achieved %.1f/s vs Eq.3 %.1f/s (err %.1f%%, want <10%%)",
			f.AchievedAckHz, f.TargetAckHz, e*100)
	}
	return f
}

// TestAckFrequencyPeriodicRegime runs a high-rate WLAN flow where RTTmin is
// small, so β/RTTmin < bw/(L·MSS): the periodic bound binds and the receiver
// should ack ~β times per RTTmin (clamped by the α ≥ 1 ms floor).
func TestAckFrequencyPeriodicRegime(t *testing.T) {
	s, _ := traceFlow(t, 3*sim.Second, wlan(phy.Std80211n))
	f := checkRegime(t, s, "periodic")
	if s.MAC == nil || s.MAC.FramesTx == 0 {
		t.Error("WLAN trace carries no MAC telemetry")
	}
	if f.TACKs < 100 || f.DataPackets < 1000 {
		t.Errorf("implausibly idle flow: %d tacks, %d data packets", f.TACKs, f.DataPackets)
	}
}

// TestAckFrequencyBytecountRegime runs a low-rate WAN flow (5 Mbit/s,
// 20 ms RTT) where bw/(L·MSS) < β/RTTmin: the byte-count bound binds and
// the receiver should ack about every L·MSS delivered bytes.
func TestAckFrequencyBytecountRegime(t *testing.T) {
	s, _ := traceFlow(t, 8*sim.Second, func(n *endpoint.SimNet, a, b net.IP, _ *telemetry.Tracer) {
		link := netem.Config{RateBps: 5e6, Delay: 10 * sim.Millisecond, QueueBytes: 256 << 10}
		experiments.WANPath(n, a, b, link, link)
	})
	f := checkRegime(t, s, "bytecount")
	// Sanity: the periodic bound really was looser than the byte bound.
	if f.TargetByteHz >= f.TargetPeriodicHz {
		t.Errorf("regime setup wrong: byte bound %.1f/s not below periodic %.1f/s",
			f.TargetByteHz, f.TargetPeriodicHz)
	}
}

// TestTraceSummaryReport checks the human report contains the headline
// sections cmd/tacktrace prints.
func TestTraceSummaryReport(t *testing.T) {
	s, id := traceFlow(t, sim.Second, wlan(phy.Std80211b))
	out := s.String()
	for _, want := range []string{"ack frequency", "Eq.3 target", "mac:", fmt.Sprintf("flow %d", id)} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
