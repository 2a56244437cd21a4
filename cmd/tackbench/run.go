package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/tacktp/tack/internal/endpoint"
	"github.com/tacktp/tack/internal/experiments"
	"github.com/tacktp/tack/internal/mac"
	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/phy"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/telemetry"
	"github.com/tacktp/tack/internal/transport"
)

// runCmd drives one instrumented connection between two sim-driven
// endpoints over a simulated path and reports its outcome — the quickest
// way to produce a trace for cmd/tacktrace:
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
	standard, ok := map[string]phy.Standard{"b": phy.Std80211b, "g": phy.Std80211g, "n": phy.Std80211n, "ac": phy.Std80211ac}[*std]
	if !ok {
		fatal(fmt.Errorf("bad -std %q: want b, g, n or ac", *std))
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

	n := endpoint.NewSimNet(*seed, netem.Config{})
	a, b := n.Host(), n.Host()
	up := netem.Config{
		RateBps: *rateMbps * 1e6, Delay: sim.Time(*owdMs * 1e6),
		QueueBytes: 256 << 10, Impair: netem.Impairments{LossRate: *loss},
	}
	down := up
	down.Impair = netem.Impairments{}
	wlan := func() *mac.Medium {
		m := mac.NewMedium(n.Loop(), phy.Get(standard))
		m.PER, m.Tracer = *per, tr
		return m
	}
	switch *pathKind {
	case "wlan":
		experiments.WLANPath(n, a, b, wlan())
	case "wan":
		experiments.WANPath(n, a, b, up, down)
	case "hybrid":
		experiments.HybridPath(n, a, b, wlan(), up, down)
	default:
		fatal(fmt.Errorf("unknown -path %q (wlan, wan, hybrid)", *pathKind))
	}

	srv, err := n.Endpoint(b, endpoint.Config{Transport: cfg})
	if err != nil {
		fatal(err)
	}
	cli, _ := n.Endpoint(a, endpoint.Config{Transport: cfg}) // the same config: valid
	snd := n.Dial(cli, srv.LocalAddr()).Sender()
	// A bounded transfer usually finishes before -dur: stop the instant it
	// does, so goodput reflects transfer time, not the idle tail.
	dur := sim.Time(*durSec * float64(sim.Second))
	if _, err := n.RunUntil(dur, func() bool { return cfg.TransferBytes > 0 && snd.Done() }); err != nil {
		fatal(err)
	}
	elapsed := n.Loop().Now()

	if traceBuf != nil {
		if err := errors.Join(tr.Err(), traceBuf.Flush(), traceFile.Close()); err != nil {
			fatal(fmt.Errorf("trace: %w", err))
		}
	}

	var delivered int64
	var rcv transport.ReceiverStats
	if acc := n.Accept(srv); acc != nil {
		delivered, rcv = acc.Receiver().Delivered(), acc.Receiver().Stats
	}
	goodput := float64(delivered) * 8 / elapsed.Seconds()
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
			Delivered: delivered, GoodputBps: goodput, Done: snd.Done(),
			Sender: snd.Stats, Receiver: rcv, Metrics: reg.Snapshot(),
		}
		if err := json.NewEncoder(os.Stdout).Encode(doc); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("%s %s/%s: %.2f Mbit/s over %.1fs sim (%d bytes delivered)\n",
		*pathKind, *mode, *ccName, goodput/1e6, elapsed.Seconds(), delivered)
	fmt.Printf("data packets: %d (retx %d), TACKs: %d, IACKs: %d (loss %d), data:ack %.1f\n",
		snd.Stats.DataPackets, snd.Stats.Retransmits, rcv.TACKsSent, rcv.IACKsSent, rcv.LossIACKs,
		float64(snd.Stats.DataPackets)/float64(max(1, rcv.AcksSent())))
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
