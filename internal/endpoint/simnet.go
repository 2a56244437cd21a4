package endpoint

import (
	"fmt"
	"net"
	"net/netip"
	"time"

	"github.com/tacktp/tack/internal/batchio"
	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/sim"
)

// simEpoch is the wall time of virtual time 0 on every sim-driven shard.
var simEpoch = time.Unix(1_000_000_000, 0)

// SimNet is the sim driver: endpoints on one seeded sim.Loop, driven
// through the same handle / onPacket / housekeep / flush as the socket
// driver. Nothing sleeps and nothing races, every packet and lifecycle
// event has an exact virtual time, and a seed replays a run. A path is one
// direction between two hosts, shared by every endpoint on them: a
// netem.Link configured as the network's wire, unless Route sets it.
//
// A SimNet and its endpoints belong to the goroutine that runs it.
// Endpoint.Dial, Accept and Conn.Wait wait on wall time and do not apply:
// Dial, Accept and RunUntil are their virtual-time forms.
type SimNet struct {
	seed   int64
	loop   *sim.Loop
	wire   netem.Config
	routes map[[2]netip.Addr]func(datagram any, size int)
	nodes  map[netip.AddrPort]func(b []byte, from *net.UDPAddr, entered sim.Time)
	hosts  byte
	eps    int
	shards []*shard // every endpoint's
	// watchers[0] see the datagrams endpoints send, watchers[1] those
	// they receive.
	watchers [2][]func(ep *Endpoint, p *packet.Packet, entered sim.Time)
	scratch  packet.Packet
	// changed: a connection was added or finished since check last looked.
	changed bool
}

// simDatagram is one datagram on a path.
type simDatagram struct {
	b       []byte
	from    *net.UDPAddr
	to      netip.AddrPort
	entered sim.Time
}

// NewSimNet returns an empty network on a loop seeded with seed.
func NewSimNet(seed int64, wire netem.Config) *SimNet {
	return &SimNet{seed: seed, loop: sim.NewLoop(seed), wire: wire,
		routes: map[[2]netip.Addr]func(any, int){},
		nodes:  map[netip.AddrPort]func([]byte, *net.UDPAddr, sim.Time){},
	}
}

// Loop returns the network's loop: its clock, RNG and timers.
func (n *SimNet) Loop() *sim.Loop { return n.loop }

// Host allocates the next host address on the network.
func (n *SimNet) Host() net.IP {
	n.hosts++
	return net.IPv4(10, 0, 0, n.hosts).To4()
}

func hostKey(ip net.IP) netip.Addr {
	a, _ := netip.AddrFromSlice(ip)
	return a.Unmap()
}

func addrKey(a *net.UDPAddr) netip.AddrPort {
	return netip.AddrPortFrom(hostKey(a.IP), uint16(a.Port))
}

// Route sets the path from host from to host to: send puts a datagram of
// size bytes on it, and the path hands the datagram to Deliver on arrival
// or drops it. The datagram is opaque: a netem.Link that corrupts it drops
// it, as a failed link checksum would.
func (n *SimNet) Route(from, to net.IP, send func(datagram any, size int)) {
	n.routes[[2]netip.Addr{hostKey(from), hostKey(to)}] = send
}

// Deliver hands a datagram at the end of its path to its endpoint.
func (n *SimNet) Deliver(datagram any, _ int) {
	d := datagram.(*simDatagram)
	if node := n.nodes[d.to]; node != nil {
		node(d.b, d.from, d.entered)
	}
}

// Watch has fn see, decoded, every datagram an endpoint receives as it
// leaves the path (in) or sends as it enters the path (!in); entered is
// when it entered the path, and p is valid only during the call.
func (n *SimNet) Watch(in bool, fn func(ep *Endpoint, p *packet.Packet, entered sim.Time)) {
	i := 0
	if in {
		i = 1
	}
	n.watchers[i] = append(n.watchers[i], fn)
}

// send puts a copy of datagram b on its path.
func (n *SimNet) send(from, to *net.UDPAddr, b []byte) {
	d := &simDatagram{append([]byte(nil), b...), from, addrKey(to), n.loop.Now()}
	key := [2]netip.Addr{hostKey(from.IP), d.to.Addr()}
	route := n.routes[key]
	if route == nil {
		route = netem.NewLink(n.loop, n.wire, n.Deliver).Send
		n.routes[key] = route
	}
	route(d, len(b))
}

// simWriter is a sim-driven shard's egress.
type simWriter struct{ ep *Endpoint }

func (w simWriter) WriteBatch(ms []batchio.Message) (int, error) {
	n := w.ep.driver
	for i := range ms {
		b := ms[i].Buf
		if len(n.watchers[0]) > 0 && packet.DecodeInto(&n.scratch, b[:len(b)-frameTrailerLen]) == nil {
			for _, fn := range n.watchers[0] {
				fn(w.ep, &n.scratch, n.loop.Now())
			}
		}
		n.send(w.ep.laddr, ms[i].Addr, b)
	}
	return len(ms), nil
}

// Endpoint adds an endpoint on host, at a port no other endpoint holds.
// Shards defaults to 1. Its ConnIDs and shard seeds come from the
// network's seed and the endpoint's place in the order of creation, not
// from the loop's RNG, so adding an endpoint leaves every path's random
// draws as they were.
func (n *SimNet) Endpoint(host net.IP, cfg Config) (*Endpoint, error) {
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	cfg.Sockets = 1
	cfg, err := cfg.validated()
	if err != nil {
		return nil, err
	}
	n.eps++
	ep := newEndpoint(cfg, []*epSocket{{}}, n.seed^int64(n.eps)*0x5851f42d4c957f2d)
	ep.laddr, ep.driver = &net.UDPAddr{IP: hostKey(host).AsSlice(), Port: 4518 + n.eps}, n
	for _, sh := range ep.shards {
		sh.loop, sh.epoch, sh.wr = n.loop, simEpoch, simWriter{ep}
	}
	n.nodes[addrKey(ep.laddr)] = func(b []byte, from *net.UDPAddr, entered sim.Time) {
		if ipk := ep.decode(ep.socks[0], b, from); ipk != nil {
			for _, fn := range n.watchers[1] {
				fn(ep, &ipk.pkt, entered)
			}
			ep.shardFor(ipk.pkt.ConnID).handle(shardMsg{op: opPacket, ipk: ipk})
		}
	}
	n.shards = append(n.shards, ep.shards...)
	return ep, nil
}

// settle does what a socket-driven shard does at the end of a burst for
// work from outside the loop: it handles queued control messages
// (Conn.Close) and stream kicks, then flushes every shard.
func (n *SimNet) settle() {
	for _, sh := range n.shards {
		for len(sh.in) > 0 || len(sh.kickCh) > 0 {
			select {
			case m := <-sh.in:
				sh.handle(m)
			case <-sh.kickCh:
				sh.processKicks()
			}
		}
		sh.flush()
	}
}

// check is the driver's invariant: Done closes only once the shard has let
// go of the connection, so no registered connection has finished. It
// looks only after a connection was added or finished.
func (n *SimNet) check() error {
	if !n.changed {
		return nil
	}
	n.changed = false
	for _, sh := range n.shards {
		for _, c := range sh.conns {
			if closed(c.doneCh) {
				return fmt.Errorf("endpoint: at %v connection %08x is finished (err %v) but still registered", n.loop.Now(), c.id, c.err)
			}
		}
	}
	return nil
}

func closed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// RunUntil runs the network burst by burst — every event due at one
// instant, then what that work queued from outside the loop, then every
// shard's egress — until cond holds or the clock reaches end, and reports
// cond. It checks the invariant after every event and every burst, and
// runs cond after each burst; what cond sets going leaves at that instant,
// so cond may act as well as look. A nil cond runs to end. The error names
// a connection that finished while still registered.
func (n *SimNet) RunUntil(end sim.Time, cond func() bool) (bool, error) {
	for {
		n.settle()
		if err := n.check(); err != nil {
			return false, err
		}
		if cond != nil && cond() {
			return true, nil
		}
		n.settle()
		at, ok := n.loop.NextAt()
		if !ok || at > end {
			n.loop.RunUntil(end)
			n.settle()
			return cond != nil && cond(), n.check()
		}
		for next := at; ok && next == at; next, ok = n.loop.NextAt() {
			n.loop.Step()
			if err := n.check(); err != nil {
				return false, err
			}
		}
	}
}

// Dial starts a connection from ep to the endpoint at to, as
// Endpoint.Dial does minus the wait; its Sender exists on return.
func (n *SimNet) Dial(ep *Endpoint, to *net.UDPAddr) *Conn {
	c := ep.register(cloneAddr(to))
	c.sh.handle(shardMsg{op: opRegister, conn: c})
	return c
}

// Accept returns a connection srv has accepted and not yet handed out, or
// nil: the virtual-time Endpoint.Accept, run by RunUntil's cond.
func (n *SimNet) Accept(srv *Endpoint) *Conn {
	select {
	case c := <-srv.accept:
		return c
	default:
		return nil
	}
}
