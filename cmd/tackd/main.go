// Command tackd is an iperf-like TCP-TACK transfer tool over real UDP
// sockets, exercising the same sans-IO protocol engine the simulator runs.
//
// Usage:
//
//	tackd serve -listen :4500 [-flows 4]               # receiving side
//	tackd send  -to host:4500 -bytes 100M [-flows 4]   # sending side
//
// One UDP socket carries every connection on each side: the server
// accepts -flows connections (0 = serve forever) and the sender dials
// -flows concurrent transfers, all demultiplexed by connection id.
//
// Both subcommands accept -trace out.jsonl (structured event trace for
// cmd/tacktrace) and -json (machine-readable result on stdout). Progress
// diagnostics always go to stderr so stdout stays clean for results.
//
// The sender reports goodput and acknowledgment statistics on completion —
// on a loopback run, compare -mode tack against -mode legacy to see the
// acknowledgment reduction first-hand.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/tacktp/tack"
	"github.com/tacktp/tack/internal/telemetry"
	"github.com/tacktp/tack/internal/transport"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "serve":
		serve(os.Args[2:])
	case "send":
		send(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tackd serve -listen :4500 [-flows 1] [-sockets 4] [-mode tack|legacy] [-trace out.jsonl] [-json] [-debug-addr 127.0.0.1:9090] [-postmortem dir]
  tackd send  -to host:4500 -bytes 100M [-flows 1] [-sockets 4] [-mode tack|legacy] [-cc bbr|cubic|...] [-trace out.jsonl] [-json] [-debug-addr 127.0.0.1:9091] [-postmortem dir]`)
	os.Exit(2)
}

// parseMode accepts tack or legacy, in any case. Anything else is an error:
// a mistyped baseline must not silently run (and be labelled as) the other
// arm of the comparison.
func parseMode(s string) (tack.Mode, error) {
	switch strings.ToLower(s) {
	case "tack":
		return tack.ModeTACK, nil
	case "legacy":
		return tack.ModeLegacy, nil
	}
	return 0, fmt.Errorf("bad -mode %q: want tack or legacy", s)
}

// parseBytes accepts 1048576, 64K, 100M, 2G.
func parseBytes(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	return n * mult, nil
}

// traceSink wraps the optional -trace output file.
type traceSink struct {
	f  *os.File
	bw *bufio.Writer
	tr *telemetry.Tracer
}

// openTrace builds a streaming tracer writing JSONL to path ("" → no trace).
func openTrace(path string) (*traceSink, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	return &traceSink{f: f, bw: bw, tr: telemetry.NewStreaming(bw)}, nil
}

// tracer returns the sink's tracer (nil on a nil sink).
func (t *traceSink) tracer() *telemetry.Tracer {
	if t == nil {
		return nil
	}
	return t.tr
}

// close flushes and closes the trace file, reporting any sink error.
func (t *traceSink) close() error {
	if t == nil {
		return nil
	}
	if err := t.tr.Err(); err != nil {
		t.f.Close()
		return err
	}
	if err := t.bw.Flush(); err != nil {
		t.f.Close()
		return err
	}
	return t.f.Close()
}

// flowResult is one connection's outcome inside a -json document.
type flowResult struct {
	ConnID     uint32  `json:"conn_id"`
	Bytes      int64   `json:"bytes"`
	ElapsedSec float64 `json:"elapsed_sec"`
	GoodputBps float64 `json:"goodput_bps"`
}

// result is the -json output document (one per run, on stdout).
type result struct {
	Role       string `json:"role"`
	Mode       string `json:"mode"`
	CC         string `json:"cc,omitempty"`
	Flows      int    `json:"flows"`
	Bytes      int64  `json:"bytes"`
	ElapsedSec float64
	GoodputBps float64
	PerFlow    []flowResult
	Sender     *transport.SenderStats
	Receiver   *transport.ReceiverStats
	Metrics    telemetry.Snapshot `json:"metrics"`
}

// MarshalJSON flattens the optional halves under stable keys.
func (r result) MarshalJSON() ([]byte, error) {
	type alias struct {
		Role       string                   `json:"role"`
		Mode       string                   `json:"mode"`
		CC         string                   `json:"cc,omitempty"`
		Flows      int                      `json:"flows"`
		Bytes      int64                    `json:"bytes"`
		ElapsedSec float64                  `json:"elapsed_sec"`
		GoodputBps float64                  `json:"goodput_bps"`
		PerFlow    []flowResult             `json:"per_flow,omitempty"`
		Sender     *transport.SenderStats   `json:"sender,omitempty"`
		Receiver   *transport.ReceiverStats `json:"receiver,omitempty"`
		Metrics    telemetry.Snapshot       `json:"metrics"`
	}
	return json.Marshal(alias(r))
}

// emit writes the run result: JSON on stdout when jsonOut, else the human
// lines produced by human().
func emit(jsonOut bool, r result, human func()) {
	if !jsonOut {
		human()
		return
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(r); err != nil {
		fmt.Fprintln(os.Stderr, "tackd: encode result:", err)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tackd:", err)
	os.Exit(1)
}

func serve(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", ":4500", "UDP listen address")
	sockets := fs.Int("sockets", 1, "SO_REUSEPORT socket-group size (Linux; >1 scales inbound demux)")
	flows := fs.Int("flows", 1, "connections to serve before exiting (0 = forever)")
	mode := fs.String("mode", "tack", "protocol mode: tack or legacy")
	tracePath := fs.String("trace", "", "write a JSONL event trace to this file")
	jsonOut := fs.Bool("json", false, "emit a JSON result document on stdout")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /debug/pprof/, /debug/tack/conns on this address")
	postmortem := fs.String("postmortem", "", "directory for anomaly post-mortem flight-recorder dumps")
	fs.Parse(args)

	m, err := parseMode(*mode)
	if err != nil {
		fatal(err)
	}
	sink, err := openTrace(*tracePath)
	if err != nil {
		fatal(err)
	}
	reg := tack.NewMetrics()
	if tr := sink.tracer(); tr != nil {
		tr.CountDrops(reg.Counter("telemetry.dropped_events"))
	}
	cfg := tack.Config{Mode: m, Tracer: sink.tracer(), Metrics: reg}
	ep, err := tack.Listen(*listen, tack.EndpointConfig{
		Transport: cfg, Sockets: *sockets, DebugAddr: *debugAddr, PostMortemDir: *postmortem,
	})
	if err != nil {
		fatal(err)
	}
	defer ep.Close()
	fmt.Fprintf(os.Stderr, "tackd: listening on %s (mode=%s, flows=%d, sockets=%d)\n",
		ep.LocalAddr(), *mode, *flows, ep.SocketCount())
	if *debugAddr != "" {
		fmt.Fprintf(os.Stderr, "tackd: debug endpoint on http://%s/\n", *debugAddr)
	}

	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		perFlow []flowResult
		agg     transport.ReceiverStats
		total   int64
		end     time.Time // latest per-flow completion
	)
	start := time.Now()
	for i := 0; *flows == 0 || i < *flows; i++ {
		c, err := ep.Accept()
		if err != nil {
			fatal(err)
		}
		if i == 0 {
			start = time.Now() // goodput clock runs from the first accept
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			if err := c.Wait(0); err != nil {
				fmt.Fprintf(os.Stderr, "tackd: conn %d: %v\n", c.ConnID(), err)
				return
			}
			// Wait returns after the completion linger; goodput is measured
			// to the moment the last byte was delivered.
			el := time.Since(t0)
			done := c.CompletedAt()
			if !done.IsZero() {
				el = done.Sub(t0)
			}
			rcv := c.Receiver()
			fmt.Fprintf(os.Stderr, "tackd: conn %d: received %d bytes in %v\n",
				c.ConnID(), rcv.Delivered(), el.Round(time.Millisecond))
			mu.Lock()
			defer mu.Unlock()
			if done.After(end) {
				end = done
			}
			perFlow = append(perFlow, flowResult{
				ConnID: c.ConnID(), Bytes: rcv.Delivered(), ElapsedSec: el.Seconds(),
				GoodputBps: float64(rcv.Delivered()) * 8 / el.Seconds(),
			})
			total += rcv.Delivered()
			s := rcv.Stats
			agg.DataPackets += s.DataPackets
			agg.TACKsSent += s.TACKsSent
			agg.IACKsSent += s.IACKsSent
			agg.LossIACKs += s.LossIACKs
			agg.WindowIACKs += s.WindowIACKs
		}()
	}
	wg.Wait()
	el := time.Since(start)
	if !end.IsZero() {
		el = end.Sub(start)
	}
	if err := sink.close(); err != nil {
		fatal(fmt.Errorf("trace: %w", err))
	}
	res := result{
		Role: "serve", Mode: *mode, Flows: len(perFlow),
		Bytes: total, ElapsedSec: el.Seconds(),
		GoodputBps: float64(total) * 8 / el.Seconds(),
		PerFlow:    perFlow, Receiver: &agg, Metrics: reg.Snapshot(),
	}
	emit(*jsonOut, res, func() {
		fmt.Printf("received %d bytes over %d flow(s) in %v (%.2f Mbit/s aggregate)\n",
			total, len(perFlow), el.Round(time.Millisecond), res.GoodputBps/1e6)
		fmt.Printf("data packets: %d, TACKs sent: %d, IACKs sent: %d (loss %d, window %d)\n",
			agg.DataPackets, agg.TACKsSent, agg.IACKsSent, agg.LossIACKs, agg.WindowIACKs)
		printBatchStats(res.Metrics)
	})
}

// printBatchStats summarizes the batched-datapath telemetry for the human
// output (the JSON document carries the full snapshot): syscall batch
// sizes, egress train lengths, freelist hit rates. Max batch > 1 proves
// recvmmsg/sendmmsg coalescing is engaged, max train > 1 that trains form.
func printBatchStats(s telemetry.Snapshot) {
	rd, wr, tr := s.Histograms["ep.batch.read_size"], s.Histograms["ep.batch.write_size"], s.Histograms["ep.batch.train_size"]
	if rd.Count == 0 && wr.Count == 0 {
		return
	}
	hit := func(gets, misses int64) float64 {
		if gets == 0 {
			return 0
		}
		return 100 * (1 - float64(misses)/float64(gets))
	}
	fmt.Printf("io batches: read mean %.1f max %.0f, write mean %.1f max %.0f, trains mean %.1f max %.0f; pool hit rate: pkt %.1f%%, buf %.1f%%\n",
		rd.Mean, rd.Max, wr.Mean, wr.Max, tr.Mean, tr.Max,
		hit(s.Counters["ep.batch.pkt_pool_gets"], s.Counters["ep.batch.pkt_pool_misses"]),
		hit(s.Counters["ep.batch.buf_pool_gets"], s.Counters["ep.batch.buf_pool_misses"]))
}

func send(args []string) {
	fs := flag.NewFlagSet("send", flag.ExitOnError)
	to := fs.String("to", "", "server address host:port")
	sockets := fs.Int("sockets", 1, "SO_REUSEPORT socket-group size (Linux; >1 scales inbound demux)")
	bytesStr := fs.String("bytes", "64M", "transfer size per flow (K/M/G suffixes)")
	flows := fs.Int("flows", 1, "concurrent connections")
	mode := fs.String("mode", "tack", "protocol mode: tack or legacy")
	ccName := fs.String("cc", "bbr", "congestion controller")
	timeout := fs.Duration("timeout", 10*time.Minute, "abort deadline per flow")
	tracePath := fs.String("trace", "", "write a JSONL event trace to this file")
	jsonOut := fs.Bool("json", false, "emit a JSON result document on stdout")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /debug/pprof/, /debug/tack/conns on this address")
	postmortem := fs.String("postmortem", "", "directory for anomaly post-mortem flight-recorder dumps")
	fs.Parse(args)
	if *to == "" {
		usage()
	}
	if *flows < 1 {
		fmt.Fprintln(os.Stderr, "bad -flows: need at least 1")
		os.Exit(2)
	}
	size, err := parseBytes(*bytesStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -bytes: %v\n", err)
		os.Exit(2)
	}
	m, err := parseMode(*mode)
	if err != nil {
		fatal(err)
	}

	sink, err := openTrace(*tracePath)
	if err != nil {
		fatal(err)
	}
	reg := tack.NewMetrics()
	if tr := sink.tracer(); tr != nil {
		tr.CountDrops(reg.Counter("telemetry.dropped_events"))
	}
	cfg := tack.Config{
		Mode: m, CC: *ccName, TransferBytes: size, RichTACK: true,
		Tracer: sink.tracer(), Metrics: reg,
	}
	ep, err := tack.Listen(":0", tack.EndpointConfig{
		Transport: cfg, Sockets: *sockets, DebugAddr: *debugAddr, PostMortemDir: *postmortem,
	})
	if err != nil {
		fatal(err)
	}
	defer ep.Close()
	fmt.Fprintf(os.Stderr, "tackd: sending %d flow(s) x %d bytes to %s (mode=%s, cc=%s)\n",
		*flows, size, *to, *mode, *ccName)

	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		perFlow []flowResult
		agg     transport.SenderStats
	)
	start := time.Now()
	for i := 0; i < *flows; i++ {
		c, err := ep.Dial(*to)
		if err != nil {
			fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			if err := c.Wait(*timeout); err != nil {
				fmt.Fprintf(os.Stderr, "tackd: conn %d: %v\n", c.ConnID(), err)
				return
			}
			el := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			perFlow = append(perFlow, flowResult{
				ConnID: c.ConnID(), Bytes: size, ElapsedSec: el.Seconds(),
				GoodputBps: float64(size) * 8 / el.Seconds(),
			})
			s := c.Sender().Stats
			agg.DataPackets += s.DataPackets
			agg.Retransmits += s.Retransmits
			agg.Timeouts += s.Timeouts
			agg.AcksReceived += s.AcksReceived
		}()
	}
	wg.Wait()
	el := time.Since(start)
	if err := sink.close(); err != nil {
		fatal(fmt.Errorf("trace: %w", err))
	}
	if len(perFlow) != *flows {
		fatal(fmt.Errorf("%d of %d flows failed", *flows-len(perFlow), *flows))
	}
	total := size * int64(*flows)
	res := result{
		Role: "send", Mode: *mode, CC: *ccName, Flows: *flows,
		Bytes: total, ElapsedSec: el.Seconds(),
		GoodputBps: float64(total) * 8 / el.Seconds(),
		PerFlow:    perFlow, Sender: &agg, Metrics: reg.Snapshot(),
	}
	emit(*jsonOut, res, func() {
		fmt.Printf("done in %v: %.2f Mbit/s aggregate goodput over %d flow(s)\n",
			el.Round(time.Millisecond), res.GoodputBps/1e6, *flows)
		fmt.Printf("data packets: %d (retx %d), acks received: %d (%.1f data:ack), timeouts: %d\n",
			agg.DataPackets, agg.Retransmits, agg.AcksReceived,
			float64(agg.DataPackets)/float64(max(1, agg.AcksReceived)), agg.Timeouts)
		printBatchStats(res.Metrics)
	})
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
