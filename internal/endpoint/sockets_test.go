package endpoint

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tacktp/tack/internal/batchio"
	"github.com/tacktp/tack/internal/telemetry"
	"github.com/tacktp/tack/internal/transport"
)

// TestSocketGroupEndToEnd binds a 4-socket server group and drives it
// from many client endpoints — each client is its own UDP socket, so
// each contributes a distinct 4-tuple and the kernel's SO_REUSEPORT
// flow hash can spread them across the group. Asserts the steering
// invariant end to end: every transfer completes regardless of which
// member its packets land on, the per-socket rx counters sum exactly to
// the endpoint-wide count, and (on reuseport platforms) more than one
// member actually saw traffic.
func TestSocketGroupEndToEnd(t *testing.T) {
	const (
		clients = 16
		size    = 32 << 10
	)
	reg := telemetry.NewRegistry()
	srv, err := Listen("127.0.0.1:0", Config{
		Transport: transport.Config{Mode: transport.ModeTACK, TransferBytes: size, Metrics: reg},
		Sockets:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	want := 4
	if !batchio.ReusePortSupported() {
		want = 1
	}
	if got := srv.SocketCount(); got != want {
		t.Fatalf("SocketCount = %d, want %d", got, want)
	}
	if g := reg.Snapshot().Gauges["ep.sock.count"]; g != float64(want) {
		t.Fatalf("ep.sock.count gauge = %v, want %d", g, want)
	}

	go func() {
		for {
			if _, err := srv.Accept(); err != nil {
				return
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, err := Listen("127.0.0.1:0", Config{
				Transport: transport.Config{Mode: transport.ModeTACK, TransferBytes: size},
			})
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			c, err := cli.Dial(srv.LocalAddr().String())
			if err != nil {
				errs <- err
				return
			}
			errs <- c.Wait(30 * time.Second)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	s := reg.Snapshot()
	var perSock int64
	busy := 0
	for i := 0; i < srv.SocketCount(); i++ {
		rx := s.Counters[fmt.Sprintf("ep.sock.%d.rx_packets", i)]
		perSock += rx
		if rx > 0 {
			busy++
		}
	}
	if total := s.Counters["ep.rx_packets"]; perSock != total {
		t.Fatalf("per-socket rx sum %d != ep.rx_packets %d", perSock, total)
	}
	if srv.SocketCount() > 1 && busy < 2 {
		t.Fatalf("only %d of %d group sockets saw traffic from %d distinct clients",
			busy, srv.SocketCount(), clients)
	}
	// No stray per-socket registrations beyond the group size.
	for name := range s.Counters {
		if strings.HasPrefix(name, fmt.Sprintf("ep.sock.%d.", srv.SocketCount())) {
			t.Fatalf("unexpected metric %q beyond socket group", name)
		}
	}
}

// TestSocketGroupSpeedup gates the reason socket groups exist: the same
// client pool ramps 2048 held connections and then moves bulk data, once
// against one server socket and once against an SO_REUSEPORT group of four,
// compared on connection-setup rate and goodput. Speedup from the group
// requires cores to spread across; below 4 the comparison measures
// scheduler noise.
func TestSocketGroupSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock gate")
	}
	if n := runtime.NumCPU(); n < 4 {
		t.Skipf("need >= 4 CPUs for a meaningful socket-group comparison, have %d", n)
	}
	if !batchio.ReusePortSupported() {
		t.Skip("no SO_REUSEPORT: the platform clamps the socket group to one socket")
	}
	const (
		clients, perClient = 64, 32 // 2048 held connections
		flows, size        = 4, 64 << 20
	)
	run := func(sockets int) (setupRate, goodputMBs float64) {
		srv, err := Listen("127.0.0.1:0", Config{
			Transport: transport.Config{Mode: transport.ModeTACK},
			Sockets:   sockets, AcceptBacklog: 4096, HandshakeTimeout: 15 * time.Second, FlightRecorder: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if got := srv.SocketCount(); got != sockets {
			t.Fatalf("asked for %d sockets, endpoint bound %d", sockets, got)
		}
		go func() {
			for {
				if _, err := srv.Accept(); err != nil {
					return
				}
			}
		}()
		var clis []*Endpoint
		defer func() {
			for _, cli := range clis {
				cli.Close()
			}
		}()
		// Each client endpoint is its own socket, so the reuseport hash can
		// spread the pool over the group.
		pool := func(n int, tcfg transport.Config) []*Endpoint {
			for i := 0; i < n; i++ {
				cli, err := Listen("127.0.0.1:0", Config{Transport: tcfg, KeepaliveInterval: 5 * time.Second,
					IdleTimeout: -1, HandshakeTimeout: 30 * time.Second, FlightRecorder: -1})
				if err != nil {
					t.Fatal(err)
				}
				clis = append(clis, cli)
			}
			return clis[len(clis)-n:]
		}
		// drive dials per connections from every endpoint of the pool at
		// once, waits for wait(c) on each, and returns the wall time taken.
		drive := func(eps []*Endpoint, per int, wait func(*Conn) error) time.Duration {
			var wg sync.WaitGroup
			start := time.Now()
			for _, cli := range eps {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < per; j++ {
						c, err := cli.Dial(srv.LocalAddr().String())
						if err == nil {
							err = wait(c)
						}
						if err != nil {
							t.Errorf("sockets=%d: %v", sockets, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			return time.Since(start)
		}
		// Held connections send nothing after the handshake (app-paced
		// source with no bytes) and are ramped while the bulk flows load the
		// server, so the setup rate is the one a busy endpoint sustains.
		heldEps := pool(clients, transport.Config{Mode: transport.ModeTACK, AppPaced: true})
		bulkEps := pool(flows, transport.Config{Mode: transport.ModeTACK, TransferBytes: size})
		bulk := make(chan time.Duration, 1)
		go func() {
			bulk <- drive(bulkEps, 1, func(c *Conn) error { return c.Wait(2 * time.Minute) })
		}()
		ramp := drive(heldEps, perClient, func(*Conn) error { return nil })
		setupRate = float64(clients*perClient) / ramp.Seconds()
		goodputMBs = float64(flows*size) / 1e6 / (<-bulk).Seconds()
		t.Logf("sockets=%d: setup %.0f conns/s, goodput %.1f MB/s", sockets, setupRate, goodputMBs)
		return setupRate, goodputMBs
	}
	setup1, goodput1 := run(1)
	setup4, goodput4 := run(4)
	if ratio := setup4 / setup1; ratio < 1.2 {
		t.Errorf("socket group sets up connections %.2fx as fast as one socket, want >= 1.2x", ratio)
	}
	if ratio := goodput4 / goodput1; ratio < 1.2 {
		t.Errorf("socket group moves %.2fx the goodput of one socket, want >= 1.2x", ratio)
	}
}

// TestSocketCountDefault checks the zero-value config keeps today's
// single-socket shape, and that the effective count is readable back.
func TestSocketCountDefault(t *testing.T) {
	reg := telemetry.NewRegistry()
	ep, err := Listen("127.0.0.1:0", Config{
		Transport: transport.Config{Mode: transport.ModeTACK, TransferBytes: 1, Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if got := ep.SocketCount(); got != 1 {
		t.Fatalf("default SocketCount = %d, want 1", got)
	}
	if g := reg.Snapshot().Gauges["ep.sock.count"]; g != 1 {
		t.Fatalf("ep.sock.count gauge = %v, want 1", g)
	}
}

// TestShardForConsistency checks the demux hash is stable (the steering
// invariant depends on every read loop routing a ConnID to the same
// shard), agrees between the mask and modulo paths when both apply, and
// spreads ids evenly enough that no shard sits idle.
func TestShardForConsistency(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8, 3, 6} {
		ep := &Endpoint{shards: make([]*shard, shards)}
		for i := range ep.shards {
			ep.shards[i] = &shard{}
		}
		if n := uint32(shards); n&(n-1) == 0 {
			ep.shardMask, ep.shardPow2 = n-1, true
		}
		counts := map[*shard]int{}
		const ids = 1 << 14
		for id := uint32(1); id <= ids; id++ {
			sh := ep.shardFor(id)
			if sh != ep.shardFor(id) {
				t.Fatalf("shards=%d: shardFor(%d) not stable", shards, id)
			}
			// The mask path must pick the same shard modulo would: both
			// reduce the same mixed hash, so pow2 counts agree by
			// construction — verify rather than trust.
			h := id * 2654435761
			h ^= h >> 16
			if want := ep.shards[h%uint32(shards)]; sh != want {
				t.Fatalf("shards=%d: mask and modulo disagree for id %d", shards, id)
			}
			counts[sh]++
		}
		for i, sh := range ep.shards {
			got := counts[sh]
			mean := ids / shards
			if got < mean/2 || got > mean*2 {
				t.Fatalf("shards=%d: shard %d got %d of %d ids (mean %d)", shards, i, got, ids, mean)
			}
		}
	}
}

// TestFloorPow2 pins the rounding used for the default shard count.
func TestFloorPow2(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 4}, {5, 4}, {7, 4}, {8, 8}, {9, 8}, {16, 16},
	} {
		if got := floorPow2(tc.in); got != tc.want {
			t.Errorf("floorPow2(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestNextReadBackoff pins the read-loop retry schedule: exponential
// from readBackoffMin, capped at readBackoffMax.
func TestNextReadBackoff(t *testing.T) {
	var d time.Duration
	seen := []time.Duration{}
	for i := 0; i < 12; i++ {
		d = nextReadBackoff(d)
		seen = append(seen, d)
	}
	if seen[0] != readBackoffMin {
		t.Fatalf("first backoff %v, want %v", seen[0], readBackoffMin)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] < seen[i-1] {
			t.Fatalf("backoff not monotonic: %v", seen)
		}
		if seen[i] > readBackoffMax {
			t.Fatalf("backoff %v exceeds cap %v", seen[i], readBackoffMax)
		}
	}
	if seen[len(seen)-1] != readBackoffMax {
		t.Fatalf("backoff never reached cap: %v", seen)
	}
}

// TestReadLoopErrorBackoff wedges the endpoint's socket with a read
// deadline in the past — every ReadBatch fails with a timeout — and
// checks the read loop (a) counts the failures on ep.rx_err, not
// ep.rx_garbage, and (b) backs off instead of spinning: in half a
// second of a persistently failing socket the retry schedule allows
// only a handful of attempts, where the old spin loop burned millions.
// Clearing the deadline must return the endpoint to full service.
func TestReadLoopErrorBackoff(t *testing.T) {
	const size = 4 << 10
	reg := telemetry.NewRegistry()
	srv, err := Listen("127.0.0.1:0", Config{
		Transport: transport.Config{Mode: transport.ModeTACK, TransferBytes: size, Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go func() {
		for {
			if _, err := srv.Accept(); err != nil {
				return
			}
		}
	}()

	srv.socks[0].uc.SetReadDeadline(time.Unix(1, 0))
	time.Sleep(500 * time.Millisecond)
	s := reg.Snapshot()
	if got := s.Counters["ep.rx_err"]; got < 2 || got > 100 {
		t.Fatalf("ep.rx_err = %d after 500ms of failing reads, want a backed-off handful (2..100)", got)
	}
	if got := s.Counters["ep.rx_garbage"]; got != 0 {
		t.Fatalf("socket errors leaked into ep.rx_garbage (= %d)", got)
	}

	srv.socks[0].uc.SetReadDeadline(time.Time{})
	cli, err := Listen("127.0.0.1:0", Config{
		Transport: transport.Config{Mode: transport.ModeTACK, TransferBytes: size},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	c, err := cli.Dial(srv.LocalAddr().String())
	if err != nil {
		t.Fatalf("dial after clearing the wedged deadline: %v", err)
	}
	if err := c.Wait(30 * time.Second); err != nil {
		t.Fatalf("transfer after recovery: %v", err)
	}
}

// BenchmarkShardFor measures the demux hot path: the power-of-two mask
// variant (the defaulted configuration) must be no slower than the
// modulo fallback it replaced.
func BenchmarkShardFor(b *testing.B) {
	mk := func(n int) *Endpoint {
		ep := &Endpoint{shards: make([]*shard, n)}
		for i := range ep.shards {
			ep.shards[i] = &shard{}
		}
		if u := uint32(n); u&(u-1) == 0 {
			ep.shardMask, ep.shardPow2 = u-1, true
		}
		return ep
	}
	for _, tc := range []struct {
		name string
		ep   *Endpoint
	}{
		{"mask8", mk(8)},
		{"mod6", mk(6)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var sink *shard
			for i := 0; i < b.N; i++ {
				sink = tc.ep.shardFor(uint32(i) * 2246822519)
			}
			_ = sink
		})
	}
}
