package endpoint

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/tacktp/tack/internal/telemetry"
	"github.com/tacktp/tack/internal/transport"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// listenDebug starts an endpoint serving its debug routes on an ephemeral
// port and returns the routes' base URL.
func listenDebug(t *testing.T, tcfg transport.Config) (*Endpoint, string) {
	t.Helper()
	ep, err := Listen("127.0.0.1:0", Config{Transport: tcfg, DebugAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	return ep, "http://" + ep.debug.Addr
}

func TestDebugServerRoutes(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("ep.rx_packets").Add(9)
	_, base := listenDebug(t, transport.Config{Mode: transport.ModeTACK, Metrics: reg})

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(body, "tack_ep_rx_packets 9") || !strings.Contains(body, "tack_ep_ack_overhead_bytes_per_mb") {
		t.Fatalf("/metrics missing the endpoint's instruments:\n%s", body)
	}

	code, body = get(t, base+"/debug/tack/conns")
	if code != http.StatusOK || strings.TrimSpace(body) != "[]" {
		t.Fatalf("/debug/tack/conns status %d body %q, want an empty list", code, body)
	}
	code, body = get(t, base+"/debug/tack/metrics")
	var snap telemetry.Snapshot
	if code != http.StatusOK || json.Unmarshal([]byte(body), &snap) != nil || snap.Counters["ep.rx_packets"] != 9 {
		t.Fatalf("/debug/tack/metrics status %d body %.120q", code, body)
	}

	code, body = get(t, base+"/debug/pprof/goroutine?debug=1")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/goroutine status %d body %.80q", code, body)
	}
	code, body = get(t, base+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "/debug/pprof/heap") {
		t.Fatalf("/debug/pprof/ status %d body %.80q", code, body)
	}
	for _, route := range []string{"/debug/pprof/profile?seconds=0.1", "/debug/pprof/trace?seconds=0.1"} {
		if code, body := get(t, base+route); code != http.StatusOK || body == "" {
			t.Fatalf("%s status %d, %d bytes", route, code, len(body))
		}
	}

	code, body = get(t, base+"/")
	if code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index status %d body %.80q", code, body)
	}
	for _, route := range []string{"/nope", "/debug/pprof/nope"} {
		if code, _ := get(t, base+route); code != http.StatusNotFound {
			t.Fatalf("%s status %d, want 404", route, code)
		}
	}
}

// TestListenServesDebugAddr: Listen with a DebugAddr and no registry
// serves the endpoint's instruments and connections, and Close takes the
// listener down with the endpoint.
func TestListenServesDebugAddr(t *testing.T) {
	ep, base := listenDebug(t, transport.Config{Mode: transport.ModeTACK})
	if code, body := get(t, base+"/metrics"); code != http.StatusOK || !strings.Contains(body, "tack_ep_conns") {
		t.Fatalf("/metrics status %d body %.120q", code, body)
	}
	if code, body := get(t, base+"/debug/tack/conns"); code != http.StatusOK || strings.TrimSpace(body) != "[]" {
		t.Fatalf("/debug/tack/conns status %d body %q", code, body)
	}
	ep.Close()
	if c, err := net.DialTimeout("tcp", ep.debug.Addr, time.Second); err == nil {
		c.Close()
		t.Fatal("debug port still accepts connections after Close")
	}
}

// TestDebugServerAgainstLiveEndpoint wires a real endpoint transfer
// behind the server and scrapes mid-run: /metrics must parse and
// /debug/tack/conns must expose both connection halves.
func TestDebugServerAgainstLiveEndpoint(t *testing.T) {
	tcfg := transport.Config{
		Mode: transport.ModeTACK, TransferBytes: 256 << 10, Metrics: telemetry.NewRegistry(),
	}
	srvEp, base := listenDebug(t, tcfg)

	go func() {
		c, err := srvEp.Accept()
		if err == nil {
			c.Wait(0)
		}
	}()
	cli, err := DialAddr(srvEp.LocalAddr().String(), tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Wait(0); err != nil {
		t.Fatal(err)
	}

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "tack_ep_rx_packets") {
		t.Fatalf("/metrics after transfer: status %d\n%s", code, body)
	}
	// The receiver half lingers ~1 s after completion and its snapshot
	// refreshes on a 100 ms cadence: poll until the refresh shows the
	// delivered bytes (or the connection is deregistered, also fine).
	deadline := time.Now().Add(2 * time.Second)
	for {
		code, body = get(t, base+"/debug/tack/conns")
		if code != http.StatusOK {
			t.Fatalf("/debug/tack/conns status %d", code)
		}
		var states []ConnState
		if err := json.Unmarshal([]byte(body), &states); err != nil {
			t.Fatal(err)
		}
		stale := false
		for _, s := range states {
			if s.Role == "receiver" && s.BytesDelivered == 0 {
				stale = true
			}
		}
		if !stale {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("receiver snapshot never showed delivery: %s", body)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
