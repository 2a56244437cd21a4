package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/tacktp/tack/internal/endpoint"
	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/telemetry"
	"github.com/tacktp/tack/internal/transport"
)

// chaosCmd drives N concurrent live connections (real UDP sockets on
// loopback) through a netem.UDPProxy injecting the adversarial impairment
// stack — Gilbert–Elliott burst loss, independent loss, duplication, bit
// corruption, reordering, jitter, and optionally a mid-flow address rebind.
// It is the command-line face of the chaos soak in internal/endpoint:
//
//	tackbench chaos -conns 8 -bytes 256K -seed 7
//	tackbench chaos -ge-enter 0.05 -ge-exit 0.2 -corrupt 0.05
//	tackbench chaos -rebind 500ms                # NAT-timeout emulation: must recover via path migration
//	tackbench chaos -rebind 500ms -migrate=false # legacy behavior: reject the new address, fail cleanly
//
// The impairment decision sequence is deterministic per -seed (same seed ⇒
// same drop/duplicate/corrupt/reorder verdicts in each direction), so a row
// quoted in EXPERIMENTS.md can be reproduced; wall-clock timing (and hence
// goodput) still varies with the host.
func chaosCmd(args []string) {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	conns := fs.Int("conns", 8, "concurrent connections")
	bytesStr := fs.String("bytes", "256K", "transfer size per connection (K/M/G)")
	seed := fs.Int64("seed", 1, "impairment decision seed (per-direction sequences are deterministic)")
	loss := fs.Float64("loss", 0.02, "independent loss rate, both directions")
	dup := fs.Float64("dup", 0.03, "duplication rate")
	corrupt := fs.Float64("corrupt", 0.02, "bit-corruption rate (corrupted datagrams are forwarded, not dropped)")
	reorder := fs.Float64("reorder", 0.05, "reordering rate (2ms hold-back)")
	jitterMs := fs.Float64("jitter", 3, "max uniform jitter in ms")
	geEnter := fs.Float64("ge-enter", 0.02, "Gilbert–Elliott P(good→bad) per packet; 0 disables")
	geExit := fs.Float64("ge-exit", 0.3, "Gilbert–Elliott P(bad→good) per packet")
	geLoss := fs.Float64("ge-loss", 0.7, "Gilbert–Elliott loss rate in the bad state")
	rebind := fs.Duration("rebind", 0, "rebind the server-facing socket after this long (0 = never); with -migrate the connections validate and adopt the new address, without it they fail cleanly")
	migrate := fs.Bool("migrate", true, "enable path migration (PATH_CHALLENGE validation of rebound addresses); -migrate=false reproduces the legacy reject-and-stall behavior")
	hrtoMs := fs.Float64("hrto", 50, "handshake retransmission timeout in ms")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-connection completion deadline")
	fs.Parse(args)

	size, err := parseBytes(*bytesStr)
	if err != nil {
		fatal(err)
	}
	imp := netem.Impairments{
		LossRate:      *loss,
		DuplicateRate: *dup,
		CorruptRate:   *corrupt,
		ReorderRate:   *reorder,
		ReorderDelay:  2 * sim.Millisecond,
		JitterMax:     sim.Time(*jitterMs * float64(sim.Millisecond)),
		GE:            netem.GilbertElliott{PEnterBad: *geEnter, PExitBad: *geExit, LossBad: *geLoss},
	}

	hrto := sim.Time(*hrtoMs * float64(sim.Millisecond))
	srvReg, cliReg := telemetry.NewRegistry(), telemetry.NewRegistry()
	srv, err := endpoint.Listen("127.0.0.1:0", endpoint.Config{
		Transport:        transport.Config{Mode: transport.ModeTACK, TransferBytes: size, Metrics: srvReg, HandshakeRTO: hrto},
		HandshakeTimeout: 30 * time.Second,
		EnableMigration:  *migrate,
	})
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	proxy, err := netem.NewUDPProxy(netem.ProxyConfig{
		Target: srv.LocalAddr().String(), ToServer: imp, ToClient: imp, Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}
	defer proxy.Close()
	cli, err := endpoint.Listen("127.0.0.1:0", endpoint.Config{
		Transport:        transport.Config{Mode: transport.ModeTACK, TransferBytes: size, Metrics: cliReg, HandshakeRTO: hrto},
		HandshakeTimeout: 30 * time.Second,
		EnableMigration:  *migrate,
	})
	if err != nil {
		fatal(err)
	}
	defer cli.Close()

	go func() {
		for {
			c, err := srv.Accept()
			if err != nil {
				return
			}
			go c.Wait(*timeout)
		}
	}()
	start := time.Now()
	// Pre/post-rebind delivery accounting: the shared server registry's
	// data-packet counter is cumulative and survives connection teardown,
	// so sampling it at the rebind instant splits delivery into before and
	// after (TestEndpointMigrationRecovery gates the same ratio).
	var rebindMu sync.Mutex
	var rebindAt time.Time
	var pktsAtRebind int64
	if *rebind > 0 {
		time.AfterFunc(*rebind, func() {
			rebindMu.Lock()
			rebindAt = time.Now()
			pktsAtRebind = srvReg.Counter("rcv.data_packets").Value()
			rebindMu.Unlock()
			proxy.Rebind()
		})
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	ok, failed := 0, 0
	errs := map[string]int{}
	for i := 0; i < *conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := cli.Dial(proxy.Addr().String())
			if err == nil {
				err = c.Wait(*timeout)
			}
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				ok++
			} else {
				failed++
				errs[err.Error()]++
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	up, down := proxy.Stats()
	goodput := float64(ok) * float64(size) * 8 / elapsed.Seconds() / 1e6

	// Delivery rates either side of the rebind (packets/s; zero when the
	// rebind never fired or the transfers finished before it).
	var preRate, postRate float64
	rebindMu.Lock()
	if !rebindAt.IsZero() {
		endPkts := srvReg.Counter("rcv.data_packets").Value()
		if d := rebindAt.Sub(start).Seconds(); d > 0 {
			preRate = float64(pktsAtRebind) / d
		}
		if d := elapsed - rebindAt.Sub(start); d > 0 {
			postRate = float64(endPkts-pktsAtRebind) / d.Seconds()
		}
	}
	rebindMu.Unlock()

	fmt.Printf("chaos seed=%d conns=%d bytes=%d: %d/%d ok in %v, agg goodput %.2f Mbit/s\n",
		*seed, *conns, size, ok, *conns, elapsed.Round(time.Millisecond), goodput)
	for e, n := range errs {
		fmt.Printf("  %d× %s\n", n, e)
	}
	fmt.Printf("  proxy to-server: %+v\n", up)
	fmt.Printf("  proxy to-client: %+v (rebinds %d)\n", down, proxy.Rebinds())
	fmt.Printf("  server: rx_corrupt=%d rx_garbage=%d migration_rejected=%d bad_feedback=%d synack_retx=%d\n",
		srvReg.Counter("ep.rx_corrupt").Value(), srvReg.Counter("ep.rx_garbage").Value(),
		srvReg.Counter("ep.migration_rejected").Value(), srvReg.Counter("ep.bad_feedback").Value(),
		srvReg.Counter("ep.synack_retransmits").Value())
	fmt.Printf("  client: syn_retx=%d rx_corrupt=%d rx_garbage=%d\n",
		cliReg.Counter("snd.syn_retransmits").Value(), cliReg.Counter("ep.rx_corrupt").Value(),
		cliReg.Counter("ep.rx_garbage").Value())
	if proxy.Rebinds() > 0 {
		fmt.Printf("  migration: probes=%d completed=%d failed=%d pre-rebind %.0f pkt/s post-rebind %.0f pkt/s\n",
			srvReg.Counter("ep.migration.probes").Value(),
			srvReg.Counter("ep.migration.completed").Value(),
			srvReg.Counter("ep.migration.failed").Value(), preRate, postRate)
	}
	// With migration on, a rebind is no longer a license to fail: the
	// connections are expected to validate the new path and finish.
	if failed > 0 && (*rebind == 0 || *migrate) {
		os.Exit(1)
	}
}
