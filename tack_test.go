package tack_test

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/tacktp/tack"
)

// TestFacadeTransfer runs a small transfer entirely through the public
// API: Listen + Accept on the server, Dial on the client, Wait on both
// halves, stats and metrics read back through the facade types.
func TestFacadeTransfer(t *testing.T) {
	const size = 256 << 10

	reg := tack.NewMetrics()
	cfg := tack.Config{
		Mode:          tack.ModeTACK,
		TransferBytes: size,
		RichTACK:      true,
		Metrics:       reg,
	}
	srv, err := tack.Listen("127.0.0.1:0", tack.EndpointConfig{Transport: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := tack.Dial(srv.LocalAddr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	served, err := srv.AcceptTimeout(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Wait(30 * time.Second); err != nil {
		t.Fatalf("client: %v", err)
	}
	if err := served.Wait(30 * time.Second); err != nil {
		t.Fatalf("server: %v", err)
	}

	if got := served.Receiver().Delivered(); got != size {
		t.Fatalf("delivered %d bytes, want %d", got, size)
	}
	if !conn.Sender().Done() {
		t.Fatal("sender not done after successful Wait")
	}
	if rcv := served.Receiver().Stats; rcv.AcksSent() == 0 {
		t.Fatal("receiver sent no acknowledgments")
	}
	snap := reg.Snapshot()
	if len(snap.Counters) == 0 {
		t.Fatal("metrics registry recorded nothing")
	}
}

// TestFacadeValidate checks that misconfiguration surfaces as an error
// from the public constructors rather than a stall.
func TestFacadeValidate(t *testing.T) {
	bad := tack.Config{Mode: tack.ModeTACK, CC: "no-such-cc"}
	if _, err := tack.Listen("127.0.0.1:0", tack.EndpointConfig{Transport: bad}); err == nil {
		t.Fatal("Listen accepted an unknown congestion controller")
	}
	if _, err := tack.Dial("127.0.0.1:1", bad); err == nil {
		t.Fatal("Dial accepted an unknown congestion controller")
	}
}

// TestDebugRoutesStayOffDefaultServeMux: importing the package must not
// mount the debug plane's profiles on http.DefaultServeMux, where an
// application's public listener would serve them.
func TestDebugRoutesStayOffDefaultServeMux(t *testing.T) {
	rec := httptest.NewRecorder()
	http.DefaultServeMux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("GET /debug/pprof/ on http.DefaultServeMux: status %d, want 404", rec.Code)
	}
}
