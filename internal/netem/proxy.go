package netem

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tacktp/tack/internal/sim"
)

// proxySockBuf is the kernel buffer the proxy asks for on each of its
// sockets: large enough that a burst is dropped by the modelled queue,
// where it is counted, and not by the kernel, where it is not.
const proxySockBuf = 8 << 20

// ProxyConfig configures a UDPProxy.
type ProxyConfig struct {
	// Target is the server address ("host:port") relayed-to datagrams are
	// forwarded to.
	Target string
	// ToServer is the client→server link.
	ToServer Config
	// ToClient is the server→client link.
	ToClient Config
	// Seed seeds the two directions' loops (Seed and Seed+1). Zero selects
	// seed 1 so runs are reproducible by default.
	Seed int64
}

// UDPProxy is a real-socket UDP relay that sits between a client and a
// server endpoint. Each direction is one Link on its own loop pinned to
// the wall clock, so the proxy has exactly the simulator's rate, queue,
// delay and impairment model — and, being fed []byte payloads, forwards
// corrupted datagrams with their bits flipped, exercising the receiver's
// decode and sanity validation exactly as radio interference above the FCS
// would.
//
// Rebind closes and re-opens the server-facing socket mid-flow, changing
// the source address the server observes for all subsequent datagrams —
// the same thing a NAT mapping timeout or a Wi-Fi→cellular roam does to a
// connection. A server with path migration enabled challenges the new
// address (PATH_CHALLENGE through the proxy, answered by the client) and
// adopts it once validated (ep.migration.completed); with migration
// disabled it rejects the "migrated" traffic instead (counted by its
// ep.migration_rejected metric) and the connection starves out.
//
// The proxy relays a single client (the most recent source address seen on
// the client-facing socket); that is sufficient for endpoint tests, where
// one client Endpoint multiplexes any number of connections over one
// socket.
type UDPProxy struct {
	client     *net.UDPConn // client-facing, fixed for the proxy's lifetime
	target     *net.UDPAddr
	server     atomic.Pointer[net.UDPConn] // server-facing; replaced by Rebind
	clientAddr atomic.Pointer[net.UDPAddr] // most recent client source address

	up, down *proxyDir

	mu      sync.Mutex // serializes Rebind and Close
	closed  bool
	rebinds atomic.Uint64

	wg sync.WaitGroup
}

// NewUDPProxy starts a proxy relaying between a fresh loopback socket
// (Addr) and cfg.Target.
func NewUDPProxy(cfg ProxyConfig) (*UDPProxy, error) {
	target, err := net.ResolveUDPAddr("udp", cfg.Target)
	if err != nil {
		return nil, err
	}
	client, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	server, err := net.DialUDP("udp", nil, target)
	if err != nil {
		client.Close()
		return nil, err
	}
	growBuffers(client)
	growBuffers(server)
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	p := &UDPProxy{client: client, target: target}
	p.server.Store(server)
	p.up = newProxyDir(cfg.ToServer, seed, func(b []byte) { _, _ = p.server.Load().Write(b) })
	p.down = newProxyDir(cfg.ToClient, seed+1, func(b []byte) {
		if a := p.clientAddr.Load(); a != nil {
			_, _ = p.client.WriteToUDP(b, a)
		}
	})
	p.wg.Add(2)
	go p.relay(p.up, func(b []byte) (int, error) {
		n, from, err := client.ReadFromUDP(b)
		if a := p.clientAddr.Load(); err == nil && (a == nil || !from.IP.Equal(a.IP) || from.Port != a.Port) {
			addr := *from
			p.clientAddr.Store(&addr)
		}
		return n, err
	})
	go p.relay(p.down, server.Read)
	return p, nil
}

// growBuffers asks, best effort, for proxySockBuf-sized kernel buffers; the
// kernel clamps the request to its configured maximum.
func growBuffers(c *net.UDPConn) {
	_ = c.SetReadBuffer(proxySockBuf)
	_ = c.SetWriteBuffer(proxySockBuf)
}

// Addr returns the client-facing address; clients dial this instead of the
// real server.
func (p *UDPProxy) Addr() *net.UDPAddr { return p.client.LocalAddr().(*net.UDPAddr) }

// Stats returns a snapshot of both directions' link counters.
func (p *UDPProxy) Stats() (toServer, toClient Stats) { return p.up.stats(), p.down.stats() }

// Rebinds returns how many times Rebind has succeeded.
func (p *UDPProxy) Rebinds() uint64 { return p.rebinds.Load() }

// Rebind swaps the server-facing socket for a new one, changing the source
// address the server sees mid-flow (NAT timeout / Wi-Fi roam emulation).
// Datagrams still on the client→server link leave from the new socket.
func (p *UDPProxy) Rebind() error {
	next, err := net.DialUDP("udp", nil, p.target)
	if err != nil {
		return err
	}
	growBuffers(next)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		next.Close()
		return errors.New("netem: proxy closed")
	}
	old := p.server.Swap(next)
	p.wg.Add(1)
	p.mu.Unlock()
	old.Close()
	p.rebinds.Add(1)
	go p.relay(p.down, next.Read)
	return nil
}

// Close shuts both sockets down and waits for the relay goroutines to
// exit. Datagrams still on either link are discarded.
func (p *UDPProxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	p.client.Close()
	p.server.Load().Close()
	p.wg.Wait()
	for _, d := range []*proxyDir{p.up, p.down} {
		d.mu.Lock()
		d.closed = true
		d.timer.Stop()
		d.mu.Unlock()
	}
	return nil
}

// relay feeds one socket's datagrams into d until the socket is closed
// (Rebind starts a fresh relay for the replacement server-facing socket).
// Any other read error is survived: a connected UDP socket reports an ICMP
// port-unreachable — a server not yet listening, or restarted — that way.
func (p *UDPProxy) relay(d *proxyDir, read func([]byte) (int, error)) {
	defer p.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, err := read(buf)
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err == nil {
			d.step(buf[:n])
		}
	}
}

// proxyDir is one direction of the proxy: a Link on a loop whose clock is
// wall time since epoch, moved under mu by each arriving datagram and by
// the one OS timer, which is set to the loop's earliest event.
type proxyDir struct {
	mu     sync.Mutex
	loop   *sim.Loop
	link   *Link
	epoch  time.Time
	timer  *time.Timer
	closed bool
}

// newProxyDir builds a direction whose surviving datagrams go to write.
// Write errors (e.g. a socket closed by Rebind or Close) are deliberately
// ignored: to the protocol under test they are indistinguishable from loss.
func newProxyDir(cfg Config, seed int64, write func([]byte)) *proxyDir {
	d := &proxyDir{loop: sim.NewLoop(seed), epoch: time.Now()}
	d.link = NewLink(d.loop, cfg, func(pl any, _ int) { write(pl.([]byte)) })
	d.timer = time.AfterFunc(time.Hour, func() { d.step(nil) })
	d.timer.Stop()
	return d
}

// step runs every event due by the wall clock, then offers the datagram
// (nil when the timer fired) to the link — a copy, as the link keeps it
// until delivery — and sends what is due right away before rearming.
func (d *proxyDir) step(datagram []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.loop.RunUntil(sim.Time(time.Since(d.epoch)))
	if datagram != nil {
		d.link.Send(bytes.Clone(datagram), len(datagram))
		d.loop.RunUntil(d.loop.Now())
	}
	if at, ok := d.loop.NextAt(); ok {
		d.timer.Reset(time.Until(d.epoch.Add(time.Duration(at))))
	}
}

func (d *proxyDir) stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.link.Stats
}
