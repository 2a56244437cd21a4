package main

import (
	"runtime"
	"testing"
	"time"

	"github.com/tacktp/tack/internal/batchio"
)

// TestSwarmSocketGroupSpeedup gates the reason socket groups exist: 2k held
// connections with churn plus short and long transfers, single socket versus
// an SO_REUSEPORT group of four, compared on connection-setup rate and
// steady-state goodput. Speedup from the group requires cores to spread
// across; below 4 the comparison measures scheduler noise.
func TestSwarmSocketGroupSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock gate")
	}
	if n := runtime.NumCPU(); n < 4 {
		t.Skipf("need >= 4 CPUs for a meaningful socket-group comparison, have %d", n)
	}
	if !batchio.ReusePortSupported() {
		t.Skip("no SO_REUSEPORT: the platform clamps the socket group to one socket")
	}
	cfg := defaultSwarm()
	cfg.conns, cfg.clients, cfg.duration = 2000, 32, 5*time.Second
	cfg.short, cfg.shortBytes, cfg.long, cfg.longBytes = 16, 2<<10, 4, 16<<20
	run := func(sockets int) swarmResult {
		cfg.sockets = sockets
		r, err := runSwarm(cfg)
		if err != nil {
			t.Fatalf("sockets=%d: %v", sockets, err)
		}
		if r.sockets != sockets {
			t.Fatalf("asked for %d sockets, endpoint bound %d", sockets, r.sockets)
		}
		t.Logf("sockets=%d: setup %.0f conns/s, goodput %.1f MB/s, %d dial errors",
			sockets, r.setupRate, r.goodputMBs, r.dialErrs)
		return r
	}
	single, multi := run(1), run(4)
	if ratio := multi.setupRate / single.setupRate; ratio < 1.2 {
		t.Errorf("socket group sets up connections %.2fx as fast as one socket, want >= 1.2x", ratio)
	}
	if ratio := multi.goodputMBs / single.goodputMBs; ratio < 1.2 {
		t.Errorf("socket group moves %.2fx the goodput of one socket, want >= 1.2x", ratio)
	}
}
