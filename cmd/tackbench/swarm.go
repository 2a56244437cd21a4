package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flag"

	"github.com/tacktp/tack/internal/endpoint"
	"github.com/tacktp/tack/internal/stats"
	"github.com/tacktp/tack/internal/telemetry"
	"github.com/tacktp/tack/internal/transport"
)

// swarmConfig sizes one swarm run; defaultSwarm holds the values the flags
// default to (the two sizes default in their K/M/G flag form).
type swarmConfig struct {
	conns      int           // held connections (app-paced, keepalive-held)
	sockets    int           // server socket-group size
	shards     int           // server shard count (0 = endpoint default)
	clients    int           // client endpoints the held swarm is spread over
	dialers    int           // concurrent dial workers per client endpoint during ramp
	churn      float64       // fraction of held connections redialed per second
	short      int           // short-transfer workers
	shortBytes int64         // short-transfer size
	long       int           // long-lived bulk flows
	longBytes  int64         // long-flow transfer size
	duration   time.Duration // steady-state window after the ramp
	timeout    time.Duration // per-dial handshake deadline
}

func defaultSwarm() swarmConfig {
	return swarmConfig{
		conns: 10000, sockets: min(4, runtime.GOMAXPROCS(0)), clients: 64, dialers: 8, churn: 0.05,
		short: 32, long: 8, duration: 10 * time.Second, timeout: 30 * time.Second,
	}
}

// swarmResult is what one run measured.
type swarmResult struct {
	heldOK, sockets     int
	rampElapsed, steady time.Duration
	setupRate           float64 // held connections established per second over the ramp
	hsP50, hsP99        float64 // handshake latency, seconds
	peakConns           int64
	churned             int64
	shortDone, longDone int64
	goodputMBs          float64 // payload moved by the transfer classes over the steady window
	dialErrs            int64
	server              telemetry.Snapshot
}

// swarmCmd is the connection-scale harness: one server endpoint (an
// SO_REUSEPORT socket group when -sockets > 1) under a swarm of
// connections from a pool of client endpoints, mixing three lifetimes:
//
//   - held connections (-conns): app-paced, keepalive-held, dialed during
//     the ramp and then churned (-churn redials/held-conn/second) through
//     the steady-state window — these measure connection-setup rate,
//     handshake latency, and sustained concurrent-connection scale;
//   - short transfers (-short workers × -bytes): continuous
//     dial→transfer→teardown loops — full-lifecycle throughput;
//   - long flows (-long × -long-bytes): bounded bulk transfers running
//     for the whole window — steady-state aggregate goodput.
//
// Every client endpoint is its own UDP socket, so each contributes a
// distinct 4-tuple and the kernel's reuseport flow hash can spread the
// swarm across the server's socket group; a single client endpoint
// would collapse onto one member and measure nothing.
//
//	tackbench swarm -conns 10000 -sockets 4 -duration 10s
//
// TestSwarmSocketGroupSpeedup runs it twice (sockets=1 vs 4) and gates the
// multi-socket speedup on multi-core machines.
func swarmCmd(args []string) {
	cfg := defaultSwarm()
	fs := flag.NewFlagSet("swarm", flag.ExitOnError)
	fs.IntVar(&cfg.conns, "conns", cfg.conns, "held connections (app-paced, keepalive-held)")
	fs.IntVar(&cfg.sockets, "sockets", cfg.sockets, "server socket-group size (default min(4, GOMAXPROCS))")
	fs.IntVar(&cfg.shards, "shards", cfg.shards, "server shard count (0 = endpoint default)")
	fs.IntVar(&cfg.clients, "clients", cfg.clients, "client endpoints the held swarm is spread over")
	fs.IntVar(&cfg.dialers, "dialers", cfg.dialers, "concurrent dial workers per client endpoint during ramp")
	fs.Float64Var(&cfg.churn, "churn", cfg.churn, "held-connection churn: this fraction redialed per second")
	fs.IntVar(&cfg.short, "short", cfg.short, "short-transfer workers (continuous dial→transfer→close loops)")
	bytesStr := fs.String("bytes", "2K", "short-transfer size (K/M/G)")
	fs.IntVar(&cfg.long, "long", cfg.long, "long-lived bulk flows (each from its own client endpoint)")
	longBytesStr := fs.String("long-bytes", "64M", "long-flow transfer size (K/M/G)")
	fs.DurationVar(&cfg.duration, "duration", cfg.duration, "steady-state window after the ramp")
	fs.DurationVar(&cfg.timeout, "timeout", cfg.timeout, "per-dial handshake deadline")
	fs.Parse(args)

	var err error
	if cfg.shortBytes, err = parseBytes(*bytesStr); err != nil {
		fatal(err)
	}
	if cfg.longBytes, err = parseBytes(*longBytesStr); err != nil {
		fatal(err)
	}
	r, err := runSwarm(cfg)
	if err != nil {
		fatal(err)
	}
	perSock := map[string]int64{}
	for i := 0; i < r.sockets; i++ {
		perSock[fmt.Sprintf("sock%d", i)] = r.server.Counters[fmt.Sprintf("ep.sock.%d.rx_packets", i)]
	}
	fmt.Printf("ramp: %d/%d held conns in %v (%.0f conns/s, p99 handshake %.2f ms)\n",
		r.heldOK, cfg.conns, r.rampElapsed.Round(time.Millisecond), r.setupRate, r.hsP99*1e3)
	fmt.Printf("swarm sockets=%d(%d) conns=%d: setup %.0f/s, hs p50 %.2f ms p99 %.2f ms, peak %d conns\n",
		r.sockets, cfg.sockets, r.heldOK, r.setupRate, r.hsP50*1e3, r.hsP99*1e3, r.peakConns)
	fmt.Printf("  steady %v: churn %d redials, %d short + %d long transfers, %.1f MB/s goodput, %d dial errors\n",
		r.steady.Round(time.Millisecond), r.churned, r.shortDone, r.longDone, r.goodputMBs, r.dialErrs)
	fmt.Printf("  server: rx %d pkts (per-socket %v), rx_err %d, demux_drops %d, accept_drops %d\n",
		r.server.Counters["ep.rx_packets"], perSock, r.server.Counters["ep.rx_err"],
		r.server.Counters["ep.demux_drops"], r.server.Counters["ep.accept_drops"])
	if r.dialErrs > 0 {
		os.Exit(1)
	}
}

// runSwarm executes one swarm run in this process.
func runSwarm(cfg swarmConfig) (swarmResult, error) {
	// The server's idle reaper must comfortably outlive both the ramp (an
	// overloaded single-core run can take tens of seconds) and the
	// keepalive cadence below; churn-closed conns leave via FIN teardown,
	// not the reaper, so a generous floor costs nothing.
	idle := 2 * cfg.duration
	if idle < 2*time.Minute {
		idle = 2 * time.Minute
	}
	reg := telemetry.NewRegistry()
	srv, err := endpoint.Listen("127.0.0.1:0", endpoint.Config{
		Transport:        transport.Config{Mode: transport.ModeTACK, Metrics: reg},
		Sockets:          cfg.sockets,
		Shards:           cfg.shards,
		AcceptBacklog:    4096,
		IdleTimeout:      idle,
		HandshakeTimeout: 15 * time.Second,
		FlightRecorder:   -1,
	})
	if err != nil {
		return swarmResult{}, err
	}
	defer srv.Close()
	addr := srv.LocalAddr().String()
	go func() {
		for {
			if _, err := srv.Accept(); err != nil {
				return
			}
		}
	}()

	// Client pools. Held conns send nothing after the handshake (app-paced
	// source with no bytes); keepalives defeat the server's idle reaper.
	var eps []*endpoint.Endpoint
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	mkPool := func(n int, tcfg transport.Config, keepalive time.Duration) ([]*endpoint.Endpoint, error) {
		for i := 0; i < n; i++ {
			ep, err := endpoint.Listen("127.0.0.1:0", endpoint.Config{
				Transport:         tcfg,
				KeepaliveInterval: keepalive,
				IdleTimeout:       -1,
				HandshakeTimeout:  30 * time.Second,
				FlightRecorder:    -1,
			})
			if err != nil {
				return nil, err
			}
			eps = append(eps, ep)
		}
		return eps[len(eps)-n:], nil
	}
	// A 5s keepalive keeps 10k held conns at ~2k background pps instead
	// of 10k; the server's idle floor above dwarfs it.
	heldPool, err := mkPool(cfg.clients, transport.Config{Mode: transport.ModeTACK, AppPaced: true}, 5*time.Second)
	if err != nil {
		return swarmResult{}, err
	}
	shortPool, err := mkPool(max(1, cfg.clients/8), transport.Config{Mode: transport.ModeTACK, TransferBytes: cfg.shortBytes}, 0)
	if err != nil {
		return swarmResult{}, err
	}
	longPool, err := mkPool(cfg.long, transport.Config{Mode: transport.ModeTACK, TransferBytes: cfg.longBytes}, 0)
	if err != nil {
		return swarmResult{}, err
	}

	var (
		mu        sync.Mutex
		hs        = stats.NewSummary() // handshake latencies, seconds
		dialErrs  atomic.Int64
		churned   atomic.Int64
		shortDone atomic.Int64
		longDone  atomic.Int64
		peakConns atomic.Int64
	)
	dial := func(ep *endpoint.Endpoint) (*endpoint.Conn, bool) {
		t0 := time.Now()
		c, err := ep.Dial(addr)
		if err != nil {
			dialErrs.Add(1)
			return nil, false
		}
		d := time.Since(t0).Seconds()
		mu.Lock()
		hs.Add(d)
		mu.Unlock()
		return c, true
	}

	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}

	// Peak-concurrency sampler.
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if n := int64(srv.ConnCount()); n > peakConns.Load() {
					peakConns.Store(n)
				}
			}
		}
	}()

	// Long flows: each endpoint re-dials for the whole window; bytes from
	// a flow cut off mid-transfer are credited from its final snapshot.
	var longBytesMoved atomic.Int64
	var loadWG sync.WaitGroup
	for _, ep := range longPool {
		loadWG.Add(1)
		go func(ep *endpoint.Endpoint) {
			defer loadWG.Done()
			for !stopped() {
				c, ok := dial(ep)
				if !ok {
					return
				}
				done := make(chan error, 1)
				go func() { done <- c.Wait(10 * cfg.duration) }()
				select {
				case err := <-done:
					if err == nil {
						longDone.Add(1)
						longBytesMoved.Add(cfg.longBytes)
					}
				case <-stop:
					if s := c.StateSnapshot(); s != nil {
						longBytesMoved.Add(s.BytesAcked)
					}
					c.Close()
					return
				}
			}
		}(ep)
	}

	// Short transfers: full dial→transfer→teardown lifecycles.
	for w := 0; w < cfg.short; w++ {
		loadWG.Add(1)
		go func(ep *endpoint.Endpoint) {
			defer loadWG.Done()
			for !stopped() {
				c, ok := dial(ep)
				if !ok {
					return
				}
				if err := c.Wait(cfg.timeout); err == nil {
					shortDone.Add(1)
				} else {
					c.Close()
				}
			}
		}(shortPool[w%len(shortPool)])
	}

	// Ramp: dial the held swarm as fast as the pool allows and measure
	// the connection-setup rate over it.
	rampStart := time.Now()
	held := make([][]*endpoint.Conn, len(heldPool))
	var rampWG sync.WaitGroup
	for i, ep := range heldPool {
		target := cfg.conns / len(heldPool)
		if i < cfg.conns%len(heldPool) {
			target++
		}
		held[i] = make([]*endpoint.Conn, 0, target)
		rampWG.Add(1)
		go func(i int, ep *endpoint.Endpoint, target int) {
			defer rampWG.Done()
			var cmu sync.Mutex
			var dwg sync.WaitGroup
			sem := make(chan struct{}, cfg.dialers)
			for n := 0; n < target; n++ {
				sem <- struct{}{}
				dwg.Add(1)
				go func() {
					defer dwg.Done()
					defer func() { <-sem }()
					// One retry: under a saturated ramp a handshake
					// timeout is congestion, not a verdict; a persistent
					// failure still shows up in dial_errors.
					c, ok := dial(ep)
					if !ok {
						c, ok = dial(ep)
					}
					if ok {
						cmu.Lock()
						held[i] = append(held[i], c)
						cmu.Unlock()
					}
				}()
			}
			dwg.Wait()
		}(i, ep, target)
	}
	rampWG.Wait()
	rampElapsed := time.Since(rampStart)
	heldOK := 0
	for i := range held {
		heldOK += len(held[i])
	}

	// Steady state: hold the swarm for -duration while churning it.
	steadyStart := time.Now()
	var churnWG sync.WaitGroup
	if cfg.churn > 0 && heldOK > 0 {
		interval := time.Duration(float64(time.Second) / (cfg.churn * float64(heldOK)))
		if interval < 200*time.Microsecond {
			interval = 200 * time.Microsecond
		}
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			tick := time.NewTicker(interval)
			defer tick.Stop()
			next := 0
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					i := next % len(held)
					next++
					if len(held[i]) == 0 {
						continue
					}
					// Close the oldest held conn on this client and redial
					// its replacement: a full open/close cycle through the
					// socket group.
					c := held[i][0]
					held[i] = held[i][1:]
					c.Close()
					if nc, ok := dial(heldPool[i]); ok {
						held[i] = append(held[i], nc)
					}
					churned.Add(1)
				}
			}
		}()
	}
	time.Sleep(cfg.duration)
	close(stop)
	churnWG.Wait()
	loadWG.Wait()
	samplerWG.Wait()
	steadyElapsed := time.Since(steadyStart)

	// Teardown the held swarm; goodput counts payload bytes moved by the
	// transfer classes over the steady window (held conns carry none).
	for i := range held {
		for _, c := range held[i] {
			c.Close()
		}
	}
	bytesMoved := longBytesMoved.Load() + shortDone.Load()*cfg.shortBytes

	return swarmResult{
		heldOK: heldOK, sockets: srv.SocketCount(),
		rampElapsed: rampElapsed, steady: steadyElapsed,
		setupRate: float64(heldOK) / rampElapsed.Seconds(),
		hsP50:     hs.Percentile(50), hsP99: hs.Percentile(99),
		peakConns: peakConns.Load(), churned: churned.Load(),
		shortDone: shortDone.Load(), longDone: longDone.Load(),
		goodputMBs: float64(bytesMoved) / 1e6 / steadyElapsed.Seconds(),
		dialErrs:   dialErrs.Load(),
		server:     reg.Snapshot(),
	}, nil
}
