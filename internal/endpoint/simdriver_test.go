package endpoint

// The sim driver: endpoints on one seeded sim.Loop, wired by netem.Links,
// driven through the same handle / onPacket / housekeep / flush as the
// socket driver. Nothing sleeps and nothing races: a test reads the exact
// virtual time of every packet and every lifecycle event, and the same
// seed replays the same run.

import (
	"net"
	"testing"
	"time"

	"github.com/tacktp/tack/internal/batchio"
	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/sim"
)

// The sim tests' wires: simWire is a 1 ms one-way delay line, for tests
// whose peer never moves data; simPath adds a 20 Mbit/s serializer and its
// one-BDP drop-tail queue, for tests with a transfer running.
const simOWD = sim.Millisecond

var (
	simWire = netem.Config{Delay: simOWD}
	simPath = netem.Config{RateBps: 20e6, Delay: simOWD}
)

// simEpoch is the wall time of virtual time 0 on every sim-driven shard:
// the wall views (CompletedAt, a snapshot's publication time) read it.
var simEpoch = time.Unix(1_000_000_000, 0)

// simNet is a network of sim-driven endpoints and scripted peers sharing
// one loop. Every direction between two addresses is one netem.Link,
// configured by wire unless setLink says otherwise.
type simNet struct {
	t     testing.TB
	loop  *sim.Loop
	wire  netem.Config
	cfgs  map[[2]string]netem.Config
	links map[[2]string]*netem.Link
	nodes map[string]func(b []byte, from *net.UDPAddr)
	eps   []*Endpoint
	hosts byte
}

func newSimNet(t testing.TB, seed int64, wire netem.Config) *simNet {
	return &simNet{
		t:     t,
		loop:  sim.NewLoop(seed),
		wire:  wire,
		cfgs:  map[[2]string]netem.Config{},
		links: map[[2]string]*netem.Link{},
		nodes: map[string]func([]byte, *net.UDPAddr){},
	}
}

// now is the network's virtual time.
func (n *simNet) now() sim.Time { return n.loop.Now() }

// host allocates the next address on the network.
func (n *simNet) host() *net.UDPAddr {
	n.hosts++
	return &net.UDPAddr{IP: net.IPv4(10, 0, 0, n.hosts).To4(), Port: 4519}
}

// setLink configures the direction from → to before it carries a packet.
func (n *simNet) setLink(from, to *net.UDPAddr, cfg netem.Config) {
	n.cfgs[[2]string{from.String(), to.String()}] = cfg
}

// send puts datagram b on the wire from → to; b must not be reused.
func (n *simNet) send(from, to *net.UDPAddr, b []byte) {
	key := [2]string{from.String(), to.String()}
	l := n.links[key]
	if l == nil {
		cfg, ok := n.cfgs[key]
		if !ok {
			cfg = n.wire
		}
		src := cloneAddr(from)
		l = netem.NewLink(n.loop, cfg, func(p any, _ int) {
			if deliver := n.nodes[key[1]]; deliver != nil {
				deliver(p.([]byte), src)
			}
		})
		n.links[key] = l
	}
	l.Send(b, len(b))
}

// simWriter is a sim-driven shard's egress: each datagram goes on the wire.
type simWriter struct {
	n    *simNet
	from *net.UDPAddr
}

func (w simWriter) WriteBatch(ms []batchio.Message) (int, error) {
	for i := range ms {
		w.n.send(w.from, ms[i].Addr, append([]byte(nil), ms[i].Buf...))
	}
	return len(ms), nil
}

// endpoint adds a sim-driven endpoint at a fresh address. Its ConnIDs
// and its shards' randomness come from the network's seed.
func (n *simNet) endpoint(cfg Config) (*Endpoint, *net.UDPAddr) {
	n.t.Helper()
	if err := cfg.Transport.Validate(); err != nil {
		n.t.Fatal(err)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	cfg = cfg.withDefaults()
	cfg.Sockets = 1
	addr := n.host()
	ep := newEndpoint(cfg, []*epSocket{{}}, n.loop.Rand().Int63())
	for _, sh := range ep.shards {
		sh.loop, sh.epoch, sh.wr = n.loop, simEpoch, simWriter{n, addr}
	}
	n.nodes[addr.String()] = func(b []byte, from *net.UDPAddr) {
		if ipk := ep.decode(ep.socks[0], b, from); ipk != nil {
			ep.shardFor(ipk.pkt.ConnID).handle(shardMsg{op: opPacket, ipk: ipk})
		}
	}
	n.eps = append(n.eps, ep)
	return ep, addr
}

// settle does what a socket-driven shard does at the end of a burst for
// work that arrived from outside the loop: it handles queued control
// messages (Conn.Close) and stream kicks, then flushes every shard.
func (n *simNet) settle() {
	for _, ep := range n.eps {
		for _, sh := range ep.shards {
			for drained := false; !drained; {
				select {
				case m := <-sh.in:
					sh.handle(m)
				case <-sh.kickCh:
					sh.processKicks()
				default:
					drained = true
				}
			}
			sh.flush()
		}
	}
	n.check()
}

// check fails the test if a registered connection has finished: Done
// closes only once the shard has let go of the connection.
func (n *simNet) check() {
	for _, ep := range n.eps {
		for _, sh := range ep.shards {
			for _, c := range sh.conns {
				select {
				case <-c.doneCh:
					n.t.Fatalf("at %v connection %08x is finished (err %v) but still registered", n.now(), c.id, c.err)
				default:
				}
			}
		}
	}
}

// runUntil runs the network burst by burst — every event due at one
// instant, checking after each, then settle — until cond holds or the
// clock reaches end, and reports cond. A nil cond runs to end.
func (n *simNet) runUntil(end sim.Time, cond func() bool) bool {
	for {
		n.settle()
		if cond != nil && cond() {
			return true
		}
		at, ok := n.loop.NextAt()
		if !ok || at > end {
			n.loop.RunUntil(end)
			n.settle()
			return cond != nil && cond()
		}
		for {
			if next, ok := n.loop.NextAt(); !ok || next > at {
				break
			}
			n.loop.Step()
			n.check()
		}
	}
}

// runFor runs the network for d.
func (n *simNet) runFor(d sim.Time) { n.runUntil(n.now()+d, nil) }

// dial starts a connection from ep to the endpoint at to, as Dial does
// minus the wait.
func (n *simNet) dial(ep *Endpoint, to *net.UDPAddr) *Conn {
	c := ep.register(cloneAddr(to))
	c.sh.handle(shardMsg{op: opRegister, conn: c})
	return c
}

// connect dials srv (at addr) from cli and runs the network until both
// halves are established, within a HandshakeTimeout of virtual time.
func (n *simNet) connect(srv *Endpoint, addr *net.UDPAddr, cli *Endpoint) (srvConn, cliConn *Conn) {
	n.t.Helper()
	cliConn = n.dial(cli, addr)
	if !n.runUntil(n.now()+sim.Time(srv.cfg.HandshakeTimeout), func() bool {
		if srvConn == nil {
			select {
			case srvConn = <-srv.accept:
			default:
			}
		}
		return srvConn != nil && closed(cliConn.estCh)
	}) {
		n.t.Fatalf("no handshake by %v", n.now())
	}
	return srvConn, cliConn
}

// finished runs the network until c is done, within d; it reports whether
// c finished, and the clock then reads the moment it did.
func (n *simNet) finished(c *Conn, d sim.Time) bool {
	return n.runUntil(n.now()+d, func() bool { return closed(c.doneCh) })
}

func closed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// simPeer is a scripted peer: it sends hand-built packets and records each
// packet it receives with its virtual arrival time.
type simPeer struct {
	n    *simNet
	addr *net.UDPAddr
	got  []simArrival
	read int // got[:read] has been returned by recv
}

// simArrival is one packet as a simPeer received it.
type simArrival struct {
	pkt  *packet.Packet
	from *net.UDPAddr
	at   sim.Time
	size int // datagram bytes on the wire
}

func (n *simNet) peer() *simPeer {
	p := &simPeer{n: n, addr: n.host()}
	n.nodes[p.addr.String()] = func(b []byte, from *net.UDPAddr) {
		body, ok := checkFrameCRC(b)
		if !ok {
			n.t.Fatalf("endpoint sent a datagram with a bad frame CRC")
		}
		pkt := &packet.Packet{}
		if err := packet.DecodeInto(pkt, body); err != nil {
			n.t.Fatalf("endpoint sent an undecodable datagram: %v", err)
		}
		p.got = append(p.got, simArrival{pkt, cloneAddr(from), n.now(), len(b)})
	}
	return p
}

// arrivals returns every packet of type want p has received.
func (p *simPeer) arrivals(want packet.Type) []simArrival {
	var out []simArrival
	for _, a := range p.got {
		if a.pkt.Type == want {
			out = append(out, a)
		}
	}
	return out
}

// send puts pkt on the wire to to, framed as an endpoint would.
func (p *simPeer) send(to *net.UDPAddr, pkt *packet.Packet) { p.n.send(p.addr, to, frame(pkt)) }

// recv runs the network until the next packet of type want arrives
// (skipping others), or until virtual time end.
func (p *simPeer) recv(want packet.Type, end sim.Time) (simArrival, bool) {
	var a simArrival
	ok := p.n.runUntil(end, func() bool {
		for ; p.read < len(p.got); p.read++ {
			if p.got[p.read].pkt.Type == want {
				a = p.got[p.read]
				p.read++
				return true
			}
		}
		return false
	})
	return a, ok
}

// accept plays the server half of a handshake against a dialing endpoint:
// it answers the first SYN with a SYNACK and returns the SYN's arrival.
func (p *simPeer) accept() simArrival {
	p.n.t.Helper()
	syn, ok := p.recv(packet.TypeSYN, p.n.now()+sim.Second)
	if !ok {
		p.n.t.Fatal("no SYN arrived")
	}
	p.send(syn.from, &packet.Packet{Type: packet.TypeSYNACK, ConnID: syn.pkt.ConnID,
		Ack: &packet.AckInfo{EchoDeparture: syn.pkt.SentAt, Window: 1 << 20}})
	return syn
}
