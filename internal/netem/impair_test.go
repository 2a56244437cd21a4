package netem

import (
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/tacktp/tack/internal/sim"
)

func chaosImpairments() Impairments {
	return Impairments{
		LossRate:      0.05,
		DuplicateRate: 0.04,
		CorruptRate:   0.03,
		ReorderRate:   0.05,
		JitterMax:     3 * sim.Millisecond,
		GE:            GilbertElliott{PEnterBad: 0.02, PExitBad: 0.3, LossBad: 0.8},
	}
}

// Same seed ⇒ the Impairer emits the identical verdict sequence. This is
// the property that makes a chaos-soak failure reproducible from its seed.
func TestImpairerDeterministicPerSeed(t *testing.T) {
	imp := chaosImpairments()
	draw := func(seed int64) []Verdict {
		im := NewImpairer(imp, rand.New(rand.NewSource(seed)))
		vs := make([]Verdict, 5000)
		for i := range vs {
			vs[i] = im.Next()
		}
		return vs
	}
	a, b := draw(42), draw(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d diverged under identical seed: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := draw(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 5000-verdict sequences")
	}
}

// Two identically-seeded links fed the same send schedule must deliver the
// same packets at the same times with the same stats — reordering,
// duplication and corruption included.
func TestLinkImpairmentSequenceDeterministic(t *testing.T) {
	run := func() (trace []string, stats Link) {
		loop := sim.NewLoop(7)
		cfg := Config{
			RateBps: 8e6,
			Delay:   5 * sim.Millisecond,
			Impair:  chaosImpairments(),
		}
		var link *Link
		link = NewLink(loop, cfg, func(payload any, size int) {
			trace = append(trace, fmt.Sprintf("%d@%d", payload.(int), loop.Now()))
		})
		for i := 0; i < 2000; i++ {
			id := i
			loop.At(sim.Time(i)*100*sim.Microsecond, func() { link.Send(id, 1200) })
		}
		loop.RunUntil(10 * sim.Second)
		return trace, *link
	}
	t1, s1 := run()
	t2, s2 := run()
	if len(t1) != len(t2) {
		t.Fatalf("delivery count diverged: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("delivery %d diverged: %s vs %s", i, t1[i], t2[i])
		}
	}
	for name, pair := range map[string][2]int{
		"dropped":    {s1.Dropped, s2.Dropped},
		"corrupted":  {s1.Corrupted, s2.Corrupted},
		"duplicated": {s1.Duplicated, s2.Duplicated},
		"reordered":  {s1.Reordered, s2.Reordered},
		"delivered":  {s1.Delivered, s2.Delivered},
	} {
		if pair[0] != pair[1] {
			t.Errorf("%s diverged: %d vs %d", name, pair[0], pair[1])
		}
		if pair[0] == 0 {
			t.Errorf("%s never fired — impairment model not exercised", name)
		}
	}
}

// The Gilbert–Elliott channel must lose packets in bursts at roughly its
// stationary rate, unlike independent Bernoulli loss.
func TestGilbertElliottBurstLoss(t *testing.T) {
	const n = 50000
	ge := GilbertElliott{PEnterBad: 0.01, PExitBad: 0.25} // LossBad defaults to 1
	im := NewImpairer(Impairments{GE: ge}, rand.New(rand.NewSource(3)))
	drops, run, maxRun := 0, 0, 0
	for i := 0; i < n; i++ {
		if im.Next().Drop {
			drops++
			run++
			if run > maxRun {
				maxRun = run
			}
		} else {
			run = 0
		}
	}
	// The empirical rate must track the configured steady state (≈ 3.85%
	// here) that MeanLoss reports — the ground truth the FEC controller
	// and benches assert against.
	rate := float64(drops) / n
	mean := ge.MeanLoss()
	if rate < mean*0.6 || rate > mean*1.4 {
		t.Errorf("GE loss rate %.4f not within ±40%% of MeanLoss %.4f", rate, mean)
	}
	// Mean burst length is 1/PExitBad = 4; a 50k-packet run should easily
	// contain a burst of 5+ — independent loss at this rate essentially
	// never would.
	if maxRun < 5 {
		t.Errorf("longest loss burst %d < 5: losses are not bursty", maxRun)
	}
}

// Accounting identity on an infinite-rate link: every surviving copy is
// delivered, so Delivered = Sent − Dropped − Corrupted + Duplicated.
func TestLinkImpairmentAccounting(t *testing.T) {
	loop := sim.NewLoop(11)
	cfg := Config{Delay: sim.Millisecond, Impair: chaosImpairments()}
	delivered := 0
	link := NewLink(loop, cfg, func(any, int) { delivered++ })
	for i := 0; i < 5000; i++ {
		loop.At(sim.Time(i)*10*sim.Microsecond, func() { link.Send(nil, 1000) })
	}
	loop.RunUntil(sim.Second)
	want := link.Sent - link.Dropped - link.Corrupted + link.Duplicated
	if delivered != want || link.Delivered != want {
		t.Fatalf("delivered %d (link says %d), want %d (sent %d dropped %d corrupted %d duplicated %d)",
			delivered, link.Delivered, want, link.Sent, link.Dropped, link.Corrupted, link.Duplicated)
	}
	if link.Corrupted == 0 || link.Duplicated == 0 || link.Dropped == 0 {
		t.Fatalf("impairments not exercised: %+v", *link)
	}
}

// TestMeanLoss pins the closed form against hand-computed points and the
// degenerate configurations.
func TestMeanLoss(t *testing.T) {
	cases := []struct {
		ge   GilbertElliott
		want float64
	}{
		{GilbertElliott{}, 0},              // disabled
		{GilbertElliott{LossGood: 0.5}, 0}, // disabled: LossGood never drawn
		{GilbertElliott{PEnterBad: 0.05, PExitBad: 0.5}, 0.05 / 0.55},
		{GilbertElliott{PEnterBad: 0.02, PExitBad: 0.3, LossBad: 0.8}, (0.02 / 0.32) * 0.8},
		{GilbertElliott{PEnterBad: 0.01, PExitBad: 0.24, LossGood: 0.01},
			(0.01/0.25)*1 + (0.24/0.25)*0.01},
		{GilbertElliott{PEnterBad: 0.1, PExitBad: 0, LossBad: 0.7}, 0.7}, // absorbed in bad
	}
	for i, c := range cases {
		got := c.ge.MeanLoss()
		if got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("case %d: MeanLoss() = %g, want %g", i, got, c.want)
		}
	}
}

func TestCorruptBytesFlipsBits(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	orig := make([]byte, 64)
	for i := range orig {
		orig[i] = byte(i)
	}
	buf := append([]byte(nil), orig...)
	CorruptBytes(buf, rng)
	diff := 0
	for i := range buf {
		if buf[i] != orig[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("CorruptBytes changed nothing")
	}
	CorruptBytes(nil, rng) // must not panic
}

// End-to-end smoke test of the live relay: payloads cross an unimpaired
// proxy intact, and Rebind changes the source address the server observes.
func TestUDPProxyRelayAndRebind(t *testing.T) {
	server, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	proxy, err := NewUDPProxy(ProxyConfig{Target: server.LocalAddr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	client, err := net.DialUDP("udp", nil, proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	recv := func() (string, *net.UDPAddr) {
		buf := make([]byte, 256)
		server.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, from, err := server.ReadFromUDP(buf)
		if err != nil {
			t.Fatalf("server read: %v", err)
		}
		return string(buf[:n]), from
	}

	if _, err := client.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	msg, from1 := recv()
	if msg != "hello" {
		t.Fatalf("server got %q, want %q", msg, "hello")
	}
	// Server→client direction.
	if _, err := server.WriteToUDP([]byte("world"), from1); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := client.Read(buf)
	if err != nil || string(buf[:n]) != "world" {
		t.Fatalf("client got %q err %v, want %q", buf[:n], err, "world")
	}

	if err := proxy.Rebind(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write([]byte("after")); err != nil {
		t.Fatal(err)
	}
	msg, from2 := recv()
	if msg != "after" {
		t.Fatalf("server got %q after rebind, want %q", msg, "after")
	}
	if from2.Port == from1.Port && from2.IP.Equal(from1.IP) {
		t.Fatalf("rebind did not change the server-observed source address (%v)", from1)
	}
	if proxy.Rebinds() != 1 {
		t.Fatalf("Rebinds() = %d, want 1", proxy.Rebinds())
	}
	up, down := proxy.Stats()
	if up.Delivered != 2 || down.Delivered != 1 {
		t.Fatalf("unexpected proxy stats: up %+v down %+v", up, down)
	}
}
