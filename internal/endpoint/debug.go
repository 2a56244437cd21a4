package endpoint

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"time"

	"github.com/tacktp/tack/internal/telemetry"
)

// The debug plane: an opt-in HTTP listener on Config.DebugAddr exposing
// the registry in Prometheus text format (/metrics), a JSON dump of the
// connections' published snapshots (/debug/tack/conns) and the Go runtime
// profiles (/debug/pprof/). Listen opens it and Close stops it. The routes
// live on a private mux, and the profiles are served from runtime/pprof
// and runtime/trace directly: net/http/pprof would mount them on
// http.DefaultServeMux of every program importing this package. The
// routes expose internals; bind them to localhost or a management network.

// serveDebug binds addr and serves the debug routes until Close, which
// waits for the server goroutine like the shards'.
func (ep *Endpoint) serveDebug(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("endpoint: debug listen %q: %w", addr, err)
	}
	ep.debug = &http.Server{
		Addr:              ln.Addr().String(),
		Handler:           ep.debugMux(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ep.wg.Add(1)
	go func() {
		defer ep.wg.Done()
		ep.debug.Serve(ln)
	}()
	return nil
}

// debugMux routes the debug plane.
func (ep *Endpoint) debugMux() *http.ServeMux {
	reg := ep.cfg.Transport.Metrics
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte(indexPage))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		// StateSnapshots refreshes the aggregate ack-overhead gauge, so
		// every scrape reads it fresh.
		ep.StateSnapshots()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		telemetry.WritePrometheus(w, reg)
	})
	mux.HandleFunc("/debug/tack/conns", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, ep.StateSnapshots())
	})
	mux.HandleFunc("/debug/tack/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, reg.Snapshot())
	})
	mux.HandleFunc("/debug/pprof/", serveProfile)
	mux.HandleFunc("/debug/pprof/profile", func(w http.ResponseWriter, r *http.Request) {
		record(w, r, 30*time.Second, pprof.StartCPUProfile, pprof.StopCPUProfile)
	})
	mux.HandleFunc("/debug/pprof/trace", func(w http.ResponseWriter, r *http.Request) {
		record(w, r, time.Second, trace.Start, trace.Stop)
	})
	return mux
}

const indexPage = `tack debug endpoint
  /metrics                  Prometheus text exposition of the telemetry registry
  /debug/tack/conns         JSON per-connection state snapshots
  /debug/tack/metrics       JSON registry snapshot (counters/gauges/histogram digests)
  /debug/pprof/             Go runtime profiles: /debug/pprof/<name>?debug=N for
                            goroutine, heap, allocs, block, mutex, threadcreate
  /debug/pprof/profile      CPU profile (?seconds=N, default 30)
  /debug/pprof/trace        execution trace (?seconds=N, default 1)
`

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// serveProfile writes the named runtime profile (/debug/pprof/<name>), in
// the binary format `go tool pprof` reads or, with ?debug=N > 0, as text;
// the bare /debug/pprof/ lists the names.
func serveProfile(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Path[len("/debug/pprof/"):]
	if name == "" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, p := range pprof.Profiles() {
			fmt.Fprintf(w, "%d\t/debug/pprof/%s?debug=1\n", p.Count(), p.Name())
		}
		return
	}
	p := pprof.Lookup(name)
	if p == nil {
		http.NotFound(w, r)
		return
	}
	debug, _ := strconv.Atoi(r.FormValue("debug"))
	if debug > 0 {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "application/octet-stream")
	}
	p.WriteTo(w, debug)
}

// record runs a whole-process recorder (the CPU profiler or the execution
// tracer) into the response for ?seconds=N, or def, or until the client
// goes away.
func record(w http.ResponseWriter, r *http.Request, def time.Duration, start func(w io.Writer) error, stop func()) {
	d := def
	if sec, err := strconv.ParseFloat(r.FormValue("seconds"), 64); err == nil && sec > 0 {
		d = time.Duration(sec * float64(time.Second))
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := start(w); err != nil {
		// Only one recorder of each kind may run per process.
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	t := time.NewTimer(d)
	select {
	case <-t.C:
	case <-r.Context().Done():
		t.Stop()
	}
	stop()
}
