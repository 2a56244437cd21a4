package endpoint

import (
	"testing"
	"time"

	"github.com/tacktp/tack/internal/stats"
	"github.com/tacktp/tack/internal/transport"
)

// benchPairCfg binds a server and client endpoint on loopback and returns
// them with a cleanup. The server drains accepted connections so their
// lifecycle machinery (linger, reaping) never blocks the accept queue.
func benchPairCfg(b testing.TB, cfg Config) (*Endpoint, *Endpoint) {
	b.Helper()
	scfg := cfg
	scfg.HandshakeTimeout = 15 * time.Second
	srv, err := Listen("127.0.0.1:0", scfg)
	if err != nil {
		b.Fatal(err)
	}
	cli, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	go func() {
		for {
			if _, err := srv.AcceptTimeout(time.Second); err != nil {
				select {
				case <-stop:
					return
				default:
				}
				if err == ErrClosed {
					return
				}
			}
		}
	}()
	b.Cleanup(func() {
		close(stop)
		cli.Close()
		srv.Close()
	})
	return srv, cli
}

// transfer dials one connection and waits for its bounded stream to
// complete.
func transfer(b testing.TB, srv, cli *Endpoint) {
	b.Helper()
	c, err := cli.Dial(srv.LocalAddr().String())
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Wait(60 * time.Second); err != nil {
		b.Fatal(err)
	}
}

// throughputSize is the bounded stream one throughput iteration moves.
const throughputSize = 4 << 20

// throughputPair is the loopback pair of the throughput benchmarks, with
// the per-connection flight recorder at its default (0) or disabled (-1).
func throughputPair(tb testing.TB, recorder int) (srv, cli *Endpoint) {
	return benchPairCfg(tb, Config{
		Transport:      transport.Config{Mode: transport.ModeTACK, TransferBytes: throughputSize},
		FlightRecorder: recorder,
	})
}

func benchThroughput(b *testing.B, recorder int) {
	srv, cli := throughputPair(b, recorder)
	b.SetBytes(throughputSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		transfer(b, srv, cli)
	}
}

// BenchmarkEndpointThroughput measures sustained loopback goodput with a
// multi-megabyte bounded stream per iteration; bytes/s is the figure of
// merit.
func BenchmarkEndpointThroughput(b *testing.B) { benchThroughput(b, 0) }

// BenchmarkEndpointThroughputNoRecorder is BenchmarkEndpointThroughput
// with the per-connection flight recorder disabled: the baseline
// TestFlightRecorderOverhead compares the default run against.
func BenchmarkEndpointThroughputNoRecorder(b *testing.B) { benchThroughput(b, -1) }

// TestFlightRecorderOverhead gates the cost of the always-on flight
// recorder: it is a struct copy into a ring, so the default datapath must
// hold the goodput it reaches with the recorder off. The arms alternate
// transfer by transfer so that drift in the machine's load hits both, and
// each arm is judged by its median transfer: one loopback flow is
// latency-bound, so single transfers land anywhere between 40 and 80 MB/s
// with scheduling luck and neither the mean nor the best is stable. Even so
// the ratio of medians spreads with σ ≈ 0.03 around 1.01 on 2 vCPUs (41 runs:
// 0.949–1.071), so the bar is 0.90 — four σ out — rather than the 0.95 a
// quieter machine could hold. Those runs took 30 transfers an arm at about
// 35 MB/s; a transfer now runs at about 63 MB/s, and 30 of them spread the
// ratio over 0.77–1.14 (15 runs), so each arm takes 60, about 4 s as
// before (0.93–1.07 over 12 runs).
func TestFlightRecorderOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock gate")
	}
	var mbPerSec [2]*stats.Summary // recorder on, off
	var srv, cli [2]*Endpoint
	for arm, recorder := range []int{0, -1} {
		mbPerSec[arm] = stats.NewSummary()
		srv[arm], cli[arm] = throughputPair(t, recorder)
	}
	for i := 0; i < 60; i++ {
		for arm := range mbPerSec {
			start := time.Now()
			transfer(t, srv[arm], cli[arm])
			mbPerSec[arm].Add(throughputSize / 1e6 / time.Since(start).Seconds())
		}
	}
	on, off := mbPerSec[0].Median(), mbPerSec[1].Median()
	t.Logf("flight recorder: on %.1f MB/s, off %.1f MB/s (ratio %.3f)", on, off, on/off)
	if on < 0.90*off {
		t.Errorf("recorder-on goodput %.1f MB/s below 90%% of recorder-off %.1f MB/s", on, off)
	}
}
