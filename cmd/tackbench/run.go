package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/tacktp/tack/internal/phy"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/telemetry"
	"github.com/tacktp/tack/internal/topo"
	"github.com/tacktp/tack/internal/transport"
)

// runCmd drives one instrumented flow over a simulated path and reports its
// outcome — the quickest way to produce a trace for cmd/tacktrace:
//
//	tackbench run -path wlan -std n -dur 10 -trace out.jsonl
//	tacktrace out.jsonl
func runCmd(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	pathKind := fs.String("path", "wlan", "path shape: wlan, wan, or hybrid")
	std := fs.String("std", "n", "802.11 standard for wlan/hybrid: b, g, n, ac")
	mode := fs.String("mode", "tack", "protocol mode: tack or legacy")
	ccName := fs.String("cc", "bbr", "congestion controller")
	durSec := fs.Float64("dur", 10, "simulated duration in seconds")
	bytesStr := fs.String("bytes", "", "bounded transfer size (K/M/G); empty = run for -dur")
	rateMbps := fs.Float64("rate", 100, "WAN bottleneck rate (Mbit/s, wan/hybrid)")
	owdMs := fs.Float64("owd", 20, "WAN one-way delay (ms, wan/hybrid)")
	loss := fs.Float64("loss", 0, "WAN data-direction random loss rate")
	per := fs.Float64("per", 0, "WLAN per-MPDU error rate")
	seed := fs.Int64("seed", 1, "simulation seed")
	tracePath := fs.String("trace", "", "write a JSONL event trace to this file")
	jsonOut := fs.Bool("json", false, "emit a JSON result document on stdout")
	fs.Parse(args)

	var tr *telemetry.Tracer
	var traceFile *os.File
	var traceBuf *bufio.Writer
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		traceFile = f
		traceBuf = bufio.NewWriterSize(f, 1<<16)
		tr = telemetry.NewStreaming(traceBuf)
		// Simulated runs are deterministic; wall-clock stamps would break
		// that and mean nothing, so events carry only the virtual clock.
		tr.SetWallClock(nil)
	}
	reg := telemetry.NewRegistry()

	m, err := parseMode(*mode)
	if err != nil {
		fatal(err)
	}
	standard, err := parseStd(*std)
	if err != nil {
		fatal(err)
	}
	cfg := transport.Config{
		Mode: m, CC: *ccName, RichTACK: true,
		Tracer: tr, Metrics: reg,
	}
	if *bytesStr != "" {
		n, err := parseBytes(*bytesStr)
		if err != nil {
			fatal(fmt.Errorf("bad -bytes: %w", err))
		}
		cfg.TransferBytes = n
	}

	loop := sim.NewLoop(*seed)
	wlanCfg := topo.WLANConfig{Standard: standard, PER: *per, Tracer: tr}
	wanCfg := topo.WANConfig{
		RateBps: *rateMbps * 1e6, OWD: sim.Time(*owdMs * 1e6),
		QueueBytes: 256 << 10, DataLoss: *loss,
	}
	var path *topo.Path
	switch *pathKind {
	case "wlan":
		path, _ = topo.WLANPath(loop, wlanCfg)
	case "wan":
		path, _, _ = topo.WANPath(loop, wanCfg)
	case "hybrid":
		path, _, _, _ = topo.HybridPath(loop, wlanCfg, wanCfg)
	default:
		fatal(fmt.Errorf("unknown -path %q (wlan, wan, hybrid)", *pathKind))
	}

	flow, err := topo.NewFlow(loop, cfg, path)
	if err != nil {
		fatal(err)
	}
	flow.Start()
	dur := sim.Time(*durSec * float64(sim.Second))
	if cfg.TransferBytes > 0 {
		// A bounded transfer usually finishes before -dur; stop shortly after
		// it does so goodput reflects transfer time, not the idle tail.
		for loop.Now() < dur && !flow.Sender.Done() {
			next := loop.Now() + sim.Millisecond
			if next > dur {
				next = dur
			}
			loop.RunUntil(next)
		}
	} else {
		loop.RunUntil(dur)
	}
	elapsed := loop.Now()

	if traceBuf != nil {
		if err := tr.Err(); err != nil {
			fatal(fmt.Errorf("trace: %w", err))
		}
		if err := traceBuf.Flush(); err != nil {
			fatal(fmt.Errorf("trace: %w", err))
		}
		if err := traceFile.Close(); err != nil {
			fatal(fmt.Errorf("trace: %w", err))
		}
	}

	delivered := flow.Receiver.Delivered()
	goodput := float64(delivered) * 8 / elapsed.Seconds()
	snd, rcv := flow.Sender.Stats, flow.Receiver.Stats
	if *jsonOut {
		doc := struct {
			Path       string                  `json:"path"`
			Mode       string                  `json:"mode"`
			CC         string                  `json:"cc"`
			SimSec     float64                 `json:"sim_sec"`
			Delivered  int64                   `json:"delivered_bytes"`
			GoodputBps float64                 `json:"goodput_bps"`
			Done       bool                    `json:"done"`
			Sender     transport.SenderStats   `json:"sender"`
			Receiver   transport.ReceiverStats `json:"receiver"`
			Metrics    telemetry.Snapshot      `json:"metrics"`
		}{
			Path: *pathKind, Mode: *mode, CC: *ccName, SimSec: elapsed.Seconds(),
			Delivered: delivered, GoodputBps: goodput, Done: flow.Sender.Done(),
			Sender: snd, Receiver: rcv, Metrics: reg.Snapshot(),
		}
		if err := json.NewEncoder(os.Stdout).Encode(doc); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("%s %s/%s: %.2f Mbit/s over %.1fs sim (%d bytes delivered)\n",
		*pathKind, *mode, *ccName, goodput/1e6, elapsed.Seconds(), delivered)
	fmt.Printf("data packets: %d (retx %d), TACKs: %d, IACKs: %d (loss %d), data:ack %.1f\n",
		snd.DataPackets, snd.Retransmits, rcv.TACKsSent, rcv.IACKsSent, rcv.LossIACKs,
		float64(snd.DataPackets)/float64(max(1, rcv.AcksSent())))
	if *tracePath != "" {
		fmt.Fprintf(os.Stderr, "trace written to %s (analyze with: tacktrace %s)\n", *tracePath, *tracePath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tackbench:", err)
	os.Exit(1)
}

// parseMode accepts tack or legacy, in any case. Anything else is an error:
// a mistyped baseline must not silently run (and be labelled as) the other
// arm of the comparison.
func parseMode(s string) (transport.Mode, error) {
	switch strings.ToLower(s) {
	case "tack":
		return transport.ModeTACK, nil
	case "legacy":
		return transport.ModeLegacy, nil
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

func parseStd(s string) (phy.Standard, error) {
	switch s {
	case "b":
		return phy.Std80211b, nil
	case "g":
		return phy.Std80211g, nil
	case "n":
		return phy.Std80211n, nil
	case "ac":
		return phy.Std80211ac, nil
	}
	return 0, fmt.Errorf("bad -std %q: want b, g, n or ac", s)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
