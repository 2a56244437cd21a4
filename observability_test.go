package tack_test

// End-to-end acceptance test for the observability plane: ≥8 live
// connections are driven through a netem proxy, a mid-flow NAT rebind
// wedges every one of them, and the test requires that (a) the debug
// endpoint keeps serving valid Prometheus output and per-connection
// JSON all the way through the failure, (b) the anomaly detectors fire
// and dump flight-recorder post-mortems, and (c) the dumps are ordinary
// trace files the analyzer parses, ending in the anomaly that caused
// them.

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tacktp/tack"
	"github.com/tacktp/tack/internal/endpoint"
	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/telemetry"
)

// freeTCPAddr reserves an ephemeral TCP port and returns it for use as
// a debug listen address (closed before use; the tiny reuse race is
// acceptable in tests).
func freeTCPAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// expositionLine matches one valid Prometheus text-format line.
var expositionLine = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+|[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? -?[0-9.eE+-]+(e[+-][0-9]+)?)$`)

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	return string(body)
}

func TestObservabilityPlaneUnderChaosStall(t *testing.T) {
	const nConns = 8
	dumpDir := t.TempDir()
	debugAddr := freeTCPAddr(t)
	reg := tack.NewMetrics()

	srv, err := tack.Listen("127.0.0.1:0", tack.EndpointConfig{
		Transport:   tack.Config{Mode: tack.ModeTACK},
		IdleTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy, err := netem.NewUDPProxy(netem.ProxyConfig{Target: srv.LocalAddr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// The client side carries the senders whose stalls we want recorded:
	// a short MinRTO makes the stall threshold (4 × RTO) trip fast after
	// the rebind cuts the ack path.
	cli, err := tack.Listen("127.0.0.1:0", tack.EndpointConfig{
		Transport: tack.Config{
			Mode: tack.ModeTACK, TransferBytes: 1 << 40, Metrics: reg,
			MinRTO: 50 * sim.Millisecond, MaxRTO: 200 * sim.Millisecond,
		},
		IdleTimeout:   5 * time.Second,
		DebugAddr:     debugAddr,
		PostMortemDir: dumpDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var acceptWG sync.WaitGroup
	acceptWG.Add(1)
	go func() {
		defer acceptWG.Done()
		for i := 0; i < nConns; i++ {
			c, err := srv.AcceptTimeout(30 * time.Second)
			if err != nil {
				return
			}
			go c.Wait(60 * time.Second)
		}
	}()

	conns := make([]*tack.Conn, 0, nConns)
	for i := 0; i < nConns; i++ {
		c, err := cli.Dial(proxy.Addr().String())
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		conns = append(conns, c)
	}

	// Scrape mid-transfer, pre-failure: every line must be valid
	// exposition format and the conns route must list all senders.
	time.Sleep(200 * time.Millisecond)
	metricsURL := "http://" + debugAddr + "/metrics"
	for _, line := range strings.Split(strings.TrimRight(scrape(t, metricsURL), "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			t.Errorf("invalid exposition line mid-run: %q", line)
		}
	}
	var states []endpoint.ConnState
	if err := json.Unmarshal([]byte(scrape(t, "http://"+debugAddr+"/debug/tack/conns")), &states); err != nil {
		t.Fatalf("conns route: %v", err)
	}
	if len(states) != nConns {
		t.Fatalf("conns route listed %d connections, want %d", len(states), nConns)
	}
	for _, s := range states {
		if s.Role != "sender" || s.FlightRecorded == 0 {
			t.Errorf("conn %08x: role=%s flight_recorded=%d, want recording sender",
				s.ConnID, s.Role, s.FlightRecorded)
		}
	}

	// Yank the path: every sender loses its ack stream at once.
	if err := proxy.Rebind(); err != nil {
		t.Fatal(err)
	}

	// The stall detectors (4 × ~75 ms RTO) must fire on every sender and
	// dump well before the 5 s idle timeout reaps the connections. Other
	// classes (retx_storm) may legitimately fire too; the gate is on the
	// stall dumps specifically.
	deadline := time.Now().Add(10 * time.Second)
	var stallDumps []string
	for time.Now().Before(deadline) {
		stallDumps, _ = filepath.Glob(filepath.Join(dumpDir, "postmortem-*-stall.jsonl"))
		if len(stallDumps) >= nConns && reg.Counter("ep.anomaly.stall").Value() >= nConns {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if len(stallDumps) < nConns {
		t.Fatalf("got %d stall post-mortem dumps, want >= %d (ep.anomaly.stall=%d)",
			len(stallDumps), nConns, reg.Counter("ep.anomaly.stall").Value())
	}
	dumps, _ := filepath.Glob(filepath.Join(dumpDir, "postmortem-*.jsonl"))

	// /metrics must still scrape cleanly while the endpoint is wedged,
	// and must now carry the anomaly counters.
	wedged := scrape(t, metricsURL)
	for _, line := range strings.Split(strings.TrimRight(wedged, "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			t.Errorf("invalid exposition line while wedged: %q", line)
		}
	}
	if !strings.Contains(wedged, "tack_ep_anomaly_stall") {
		t.Error("/metrics missing tack_ep_anomaly_stall after stall fired")
	}
	if reg.Counter("ep.anomaly.stall").Value() < nConns {
		t.Errorf("ep.anomaly.stall = %d, want >= %d", reg.Counter("ep.anomaly.stall").Value(), nConns)
	}

	// Each dump (any class) must be a parseable trace whose analysis
	// reports its anomaly, alongside the flow's real protocol history
	// (acks/data); stall dumps must specifically attribute the stall.
	for _, path := range dumps {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		events, err := telemetry.DecodeJSONL(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(events) == 0 {
			t.Fatalf("%s: empty dump", path)
		}
		var sawAnomaly, sawProtocol bool
		for _, e := range events {
			switch e.Kind {
			case telemetry.KindAnomaly:
				sawAnomaly = true
			case telemetry.KindAckReceived, telemetry.KindDataSent, telemetry.KindRTOFired:
				sawProtocol = true
			}
		}
		if !sawAnomaly || !sawProtocol {
			t.Errorf("%s: anomaly=%v protocol=%v, want both in dump", path, sawAnomaly, sawProtocol)
		}
		summary := telemetry.Analyze(events)
		if len(summary.Flows) != 1 {
			t.Fatalf("%s: analyzer found %d flows, want 1", path, len(summary.Flows))
		}
		if len(summary.Flows[0].Anomalies) == 0 {
			t.Errorf("%s: analyzer reported no anomalies", path)
		}
		if strings.HasSuffix(path, "-stall.jsonl") && summary.Flows[0].Anomalies["stall"] == 0 {
			t.Errorf("%s: analyzer missed the stall: %v", path, summary.Flows[0].Anomalies)
		}
		if !strings.Contains(summary.String(), "ANOMALIES: ") {
			t.Errorf("%s: report missing ANOMALIES line", path)
		}
	}

	// Wedged connections must terminate (idle timeout), never hang.
	for i, c := range conns {
		if err := c.Wait(30 * time.Second); err == nil {
			t.Errorf("conn %d completed a 1 TiB transfer through a dead path", i)
		}
	}
	acceptWG.Wait()
}

// TestFlightRecorderDisabled pins the opt-out: FlightRecorder < 0 must
// leave connections ring-less and snapshots at zero recorded events.
func TestFlightRecorderDisabled(t *testing.T) {
	srv, err := tack.Listen("127.0.0.1:0", tack.EndpointConfig{
		Transport:      tack.Config{Mode: tack.ModeTACK},
		FlightRecorder: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	accepted := make(chan *tack.Conn, 1)
	go func() {
		c, err := srv.AcceptTimeout(10 * time.Second)
		if err == nil {
			c.Wait(0)
			accepted <- c
		}
	}()
	cli, err := tack.Listen("127.0.0.1:0", tack.EndpointConfig{
		Transport:      tack.Config{Mode: tack.ModeTACK, TransferBytes: 64 << 10},
		FlightRecorder: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	c, err := cli.Dial(srv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if c.FlightRecorder() != nil {
		t.Error("client ring present with FlightRecorder: -1")
	}
	sc := <-accepted
	if sc.FlightRecorder() != nil {
		t.Error("server ring present with FlightRecorder: -1")
	}
}
