package endpoint

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/tacktp/tack/internal/telemetry"
	"github.com/tacktp/tack/internal/transport"
)

// TestSwarmLifecycleChurn is a connection swarm small enough for -race: a
// 4-socket server group under connection churn from a pool of client
// endpoints — some connections run their bounded transfer to
// completion, every third one is torn down mid-flight. The invariants
// are lifecycle-structural: no goroutine leaks once everything closes,
// every connection drains (ConnCount returns to zero on both sides),
// and completed transfers still complete exactly despite the churn
// around them.
func TestSwarmLifecycleChurn(t *testing.T) {
	const (
		clients = 4
		rounds  = 6
		perCli  = 4 // conns dialed per client per round
		size    = 4 << 10
	)
	before := runtime.NumGoroutine()

	reg := telemetry.NewRegistry()
	srv, err := Listen("127.0.0.1:0", Config{
		Transport:     transport.Config{Mode: transport.ModeTACK, TransferBytes: size, Metrics: reg},
		Sockets:       4,
		AcceptBacklog: 256,
		IdleTimeout:   2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			if _, err := srv.Accept(); err != nil {
				return
			}
		}
	}()

	clis := make([]*Endpoint, clients)
	for i := range clis {
		clis[i], err = Listen("127.0.0.1:0", Config{
			Transport: transport.Config{Mode: transport.ModeTACK, TransferBytes: size},
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds*perCli)
	for _, cli := range clis {
		wg.Add(1)
		go func(cli *Endpoint) {
			defer wg.Done()
			n := 0
			for r := 0; r < rounds; r++ {
				for i := 0; i < perCli; i++ {
					c, err := cli.Dial(srv.LocalAddr().String())
					if err != nil {
						errs <- err
						return
					}
					n++
					if n%3 == 0 {
						// Churn: abandon this transfer mid-flight. Teardown
						// must be clean on both sides.
						c.Close()
						continue
					}
					if err := c.Wait(30 * time.Second); err != nil {
						errs <- err
						return
					}
				}
			}
		}(cli)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every connection must drain from both endpoints' tables — closed
	// ones via FIN teardown, the rest after transfer completion (the
	// server side may briefly linger; poll with a deadline).
	drained := func(ep *Endpoint) bool { return ep.ConnCount() == 0 }
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		ok := drained(srv)
		for _, cli := range clis {
			ok = ok && drained(cli)
		}
		if ok {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, cli := range clis {
		if n := cli.ConnCount(); n != 0 {
			t.Errorf("client ConnCount = %d after churn, want 0", n)
		}
		cli.Close()
	}
	if n := srv.ConnCount(); n != 0 {
		t.Errorf("server ConnCount = %d after churn, want 0", n)
	}
	srv.Close()
	leakCheck(t, before)

	// Churn must not have corrupted steering: the per-socket receive
	// counters still sum exactly to the endpoint-wide count.
	s := reg.Snapshot()
	var perSock int64
	for i := 0; i < srv.SocketCount(); i++ {
		perSock += s.Counters[socketCounterName(i, "rx_packets")]
	}
	if total := s.Counters["ep.rx_packets"]; perSock != total {
		t.Errorf("per-socket rx sum %d != ep.rx_packets %d", perSock, total)
	}
}
