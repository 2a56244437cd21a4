package netem

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/tacktp/tack/internal/sim"
)

// sink is a UDP server that keeps every datagram it reads, in order.
type sink struct {
	conn *net.UDPConn
	mu   sync.Mutex
	got  [][]byte
}

func newSink(t *testing.T) *sink {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	growBuffers(conn)
	s := &sink{conn: conn}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 64<<10)
		for {
			n, err := conn.Read(buf)
			if err != nil {
				return
			}
			s.mu.Lock()
			s.got = append(s.got, append([]byte(nil), buf[:n]...))
			s.mu.Unlock()
		}
	}()
	t.Cleanup(func() { conn.Close(); <-done })
	return s
}

// wait returns what arrived once n datagrams have, or after d.
func (s *sink) wait(n int, d time.Duration) [][]byte {
	for deadline := time.Now().Add(d); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		got := s.got
		s.mu.Unlock()
		if len(got) >= n || time.Now().After(deadline) {
			return got
		}
	}
}

// numbered returns n datagrams of size bytes: a big-endian index, then a
// pattern.
func numbered(n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		b := make([]byte, size)
		binary.BigEndian.PutUint32(b, uint32(i))
		for j := 4; j < size; j++ {
			b[j] = byte(i + j)
		}
		out[i] = b
	}
	return out
}

// feed sends the datagrams to the proxy in bursts of 50, each burst only
// once the proxy has read the last, so the kernel never drops one ahead of
// the link model.
func feed(t *testing.T, p *UDPProxy, dgrams [][]byte) {
	t.Helper()
	conn, err := net.DialUDP("udp", nil, p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i, b := range dgrams {
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
		if (i+1)%50 != 0 && i+1 != len(dgrams) {
			continue
		}
		for deadline := time.Now().Add(5 * time.Second); p.up.stats().Sent < i+1; time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("proxy read %d of %d datagrams: the kernel dropped some ahead of it", p.up.stats().Sent, i+1)
			}
		}
	}
}

// settle waits until the direction's loop has nothing left to deliver.
func (d *proxyDir) settle(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		d.mu.Lock()
		_, busy := d.loop.NextAt()
		d.mu.Unlock()
		if !busy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("proxy direction never went idle")
		}
	}
}

func newTestProxy(t *testing.T, cfg ProxyConfig) *UDPProxy {
	t.Helper()
	p, err := NewUDPProxy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// A base delay alone must not reorder: every datagram waits the same 2 ms
// on one loop, released by one timer in arrival order.
func TestProxyDelayKeepsOrder(t *testing.T) {
	const n = 3000
	srv := newSink(t)
	p := newTestProxy(t, ProxyConfig{
		Target:   srv.conn.LocalAddr().String(),
		ToServer: Config{Delay: 2 * sim.Millisecond},
	})
	feed(t, p, numbered(n, 100))
	got := srv.wait(n, 5*time.Second)
	inversions, high := 0, -1
	for _, b := range got {
		i := int(binary.BigEndian.Uint32(b))
		if i < high {
			inversions++
		}
		high = max(high, i)
	}
	t.Logf("%d of %d delivered, %d behind a later datagram", len(got), n, inversions)
	if len(got) == 0 {
		t.Fatal("nothing arrived")
	}
	if inversions != 0 {
		t.Fatalf("%d of %d datagrams arrived behind a later one through a 2 ms delay", inversions, len(got))
	}
}

// One Config and one seed decide the same fate for the same packet on
// either clock: which packets are dropped or duplicated, and which bits
// corruption flips.
func TestSameSeedSameVerdictsOnBothClocks(t *testing.T) {
	const n, seed = 2000, 42
	cfg := Config{Delay: sim.Millisecond, Impair: Impairments{
		LossRate:      0.05,
		DuplicateRate: 0.05,
		CorruptRate:   0.05,
		GE:            GilbertElliott{PEnterBad: 0.02, PExitBad: 0.3},
	}}

	loop := sim.NewLoop(seed)
	var want [][]byte
	link := NewLink(loop, cfg, func(pl any, _ int) { want = append(want, pl.([]byte)) })
	for _, b := range numbered(n, 64) {
		link.Send(b, len(b))
	}
	loop.Run()
	if link.Dropped == 0 || link.Duplicated == 0 || link.Corrupted == 0 {
		t.Fatalf("impairments not exercised: %+v", link.Stats)
	}

	srv := newSink(t)
	p := newTestProxy(t, ProxyConfig{Target: srv.conn.LocalAddr().String(), ToServer: cfg, Seed: seed})
	feed(t, p, numbered(n, 64))
	p.up.settle(t)
	got := srv.wait(len(want), 5*time.Second)
	if up, _ := p.Stats(); up != link.Stats {
		t.Errorf("proxy stats %+v, sim link %+v", up, link.Stats)
	}
	if len(got) != len(want) {
		t.Fatalf("proxy delivered %d datagrams, sim link %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("delivery %d differs between clocks:\nproxy %x\nsim   %x", i, got[i], want[i])
		}
	}
}

// Once idle, a link accounts for every packet on either clock:
// Sent + Duplicated == Dropped + Overflows + Delivered, plus Corrupted
// for payloads that cannot carry flipped bits.
func TestLinkConservation(t *testing.T) {
	cfg := Config{RateBps: 20e6, Delay: sim.Millisecond, QueueBytes: 8 << 10, Impair: Impairments{
		DuplicateRate: 0.05,
		CorruptRate:   0.05,
		GE:            GilbertElliott{PEnterBad: 0.05, PExitBad: 0.5},
	}}
	check := func(t *testing.T, s Stats, corruptDrops int) {
		t.Helper()
		if s.Sent+s.Duplicated != s.Dropped+s.Overflows+s.Delivered+corruptDrops {
			t.Fatalf("not conserved: %+v", s)
		}
		if s.Dropped == 0 || s.Overflows == 0 || s.Duplicated == 0 || s.Corrupted == 0 {
			t.Fatalf("link not exercised: %+v", s)
		}
	}
	sim1 := func(payload func(i int) any) Stats {
		loop := sim.NewLoop(3)
		link := NewLink(loop, cfg, func(any, int) {})
		for i := 0; i < 2000; i++ {
			// Bursts of 50 every 20 ms: 2.5× the link rate, so the queue fills.
			at := sim.Time(i/50) * 20 * sim.Millisecond
			loop.At(at, func() { link.Send(payload(i), 1000) })
		}
		loop.Run()
		return link.Stats
	}
	t.Run("sim", func(t *testing.T) {
		s := sim1(func(i int) any { return i })
		check(t, s, s.Corrupted)
		b := sim1(func(int) any { return make([]byte, 1000) })
		check(t, b, 0)
	})
	t.Run("proxy", func(t *testing.T) {
		srv := newSink(t)
		p := newTestProxy(t, ProxyConfig{Target: srv.conn.LocalAddr().String(), ToServer: cfg, Seed: 3})
		feed(t, p, numbered(2000, 1000))
		p.up.settle(t)
		up, _ := p.Stats()
		check(t, up, 0)
	})
}

// A connected UDP socket reports an ICMP port-unreachable as a read
// error. The server→client direction must outlive it: a server that
// binds late still gets its replies through.
func TestProxySurvivesPortUnreachable(t *testing.T) {
	lo := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	probe, err := net.ListenUDP("udp", lo)
	if err != nil {
		t.Fatal(err)
	}
	port := probe.LocalAddr().(*net.UDPAddr)
	probe.Close()

	p := newTestProxy(t, ProxyConfig{Target: port.String()})
	client, err := net.DialUDP("udp", nil, p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Write([]byte("nobody home")); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); p.up.stats().Delivered == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("proxy never forwarded the first datagram")
		}
	}
	time.Sleep(50 * time.Millisecond) // let the ICMP error reach the proxy's read

	server, err := net.ListenUDP("udp", port)
	if err != nil {
		t.Skipf("port %v taken meanwhile: %v", port, err)
	}
	defer server.Close()
	if _, err := client.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	server.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, from, err := server.ReadFromUDP(buf)
	if err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("server got %q, %v", buf[:n], err)
	}
	if _, err := server.WriteToUDP([]byte("pong"), from); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := client.Read(buf); err != nil || string(buf[:n]) != "pong" {
		t.Fatalf("server→client direction dead: client got %q, %v", buf[:n], err)
	}
}
