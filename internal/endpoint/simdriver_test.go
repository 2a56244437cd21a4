package endpoint

// The sim tests' side of the sim driver (simnet.go): a SimNet bound to the
// test, and a scripted peer.

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/stream"
	"github.com/tacktp/tack/internal/transport"
)

// The sim tests' wires: simWire is a 1 ms one-way delay line, for tests
// whose peer never moves data; simPath adds a 20 Mbit/s serializer and its
// one-BDP drop-tail queue, for tests with a transfer running.
const simOWD = sim.Millisecond

var (
	simWire = netem.Config{Delay: simOWD}
	simPath = netem.Config{RateBps: 20e6, Delay: simOWD}
)

// simNet is a SimNet bound to a test: its helpers fail the test where the
// driver returns an error.
type simNet struct {
	*SimNet
	t testing.TB
}

func newSimNet(t testing.TB, seed int64, wire netem.Config) *simNet {
	return &simNet{NewSimNet(seed, wire), t}
}

// now is the network's virtual time.
func (n *simNet) now() sim.Time { return n.loop.Now() }

// setLink configures the direction from → to before it carries a packet.
func (n *simNet) setLink(from, to *net.UDPAddr, cfg netem.Config) {
	n.Route(from.IP, to.IP, netem.NewLink(n.loop, cfg, n.Deliver).Send)
}

// endpoint adds a sim-driven endpoint on a fresh host.
func (n *simNet) endpoint(cfg Config) (*Endpoint, *net.UDPAddr) {
	n.t.Helper()
	ep, err := n.Endpoint(n.Host(), cfg)
	if err != nil {
		n.t.Fatal(err)
	}
	return ep, ep.LocalAddr()
}

// runUntil is RunUntil, failing the test on a broken invariant.
func (n *simNet) runUntil(end sim.Time, cond func() bool) bool {
	n.t.Helper()
	ok, err := n.RunUntil(end, cond)
	if err != nil {
		n.t.Fatal(err)
	}
	return ok
}

// runFor runs the network for d.
func (n *simNet) runFor(d sim.Time) { n.runUntil(n.now()+d, nil) }

// connect dials srv from cli and runs the network until both halves are
// established.
func (n *simNet) connect(srv, cli *Endpoint) (srvConn, cliConn *Conn) {
	n.t.Helper()
	cliConn = n.Dial(cli, srv.LocalAddr())
	if !n.runUntil(n.now()+sim.Time(srv.cfg.HandshakeTimeout), func() bool {
		srvConn = n.Accept(srv)
		return srvConn != nil
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
	p := &simPeer{n: n, addr: &net.UDPAddr{IP: n.Host(), Port: 4519}}
	n.nodes[addrKey(p.addr)] = func(b []byte, from *net.UDPAddr, _ sim.Time) {
		pkt := &packet.Packet{}
		if err := packet.DecodeDatagram(pkt, b); err != nil {
			n.t.Fatalf("endpoint sent a bad datagram: %v", err)
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

// TestSimEndpointAddrAndClose: an endpoint of a SimNet has no socket, yet
// LocalAddr reads back its address on the network and Close finishes its
// connections.
func TestSimEndpointAddrAndClose(t *testing.T) {
	n := newSimNet(t, 1, simWire)
	srv, srvAddr := n.endpoint(Config{Transport: transport.Config{Mode: transport.ModeTACK}})
	cli, _ := n.endpoint(Config{Transport: transport.Config{Mode: transport.ModeTACK, AppPaced: true}})
	srvConn, cliConn := n.connect(srv, cli)
	if got := srvConn.LocalAddr(); !addrEqual(got, srvAddr) {
		t.Fatalf("server conn LocalAddr = %v, want %v", got, srvAddr)
	}
	if got, want := cliConn.LocalAddr(), cli.LocalAddr(); got == nil || !addrEqual(got, want) || addrEqual(got, srvAddr) {
		t.Fatalf("client conn LocalAddr = %v, want its endpoint's %v", got, want)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if !closed(srvConn.doneCh) || srvConn.Err() != ErrClosed {
		t.Fatalf("after Close: server conn done %v, err %v; want done with ErrClosed", closed(srvConn.doneCh), srvConn.Err())
	}
	if srv.ConnCount() != 0 {
		t.Fatalf("%d connections left on a closed endpoint", srv.ConnCount())
	}
	n.runFor(sim.Second) // the driver's invariant holds across the close
}

// TestSimNetCheckFindsFinishedRegisteredConn: the driver's invariant
// check names the connection that finished while still registered, and
// the virtual time it found it. It checks after every event, so a later
// event of the same instant that removes the connection does not hide it.
func TestSimNetCheckFindsFinishedRegisteredConn(t *testing.T) {
	n := newSimNet(t, 1, simWire)
	srv, _ := n.endpoint(Config{Transport: transport.Config{Mode: transport.ModeTACK}})
	cli, _ := n.endpoint(Config{Transport: transport.Config{Mode: transport.ModeTACK, AppPaced: true}})
	_, c := n.connect(srv, cli)
	at := n.now() + 10*sim.Millisecond
	n.loop.At(at, func() { c.finish(nil) }) // finished, yet its shard still holds it
	n.loop.At(at, func() { c.sh.remove(c, nil) })
	_, err := n.RunUntil(at+sim.Second, nil)
	if err == nil {
		t.Fatal("RunUntil ran past a finished connection still registered")
	}
	for _, want := range []string{fmt.Sprintf("%08x", c.ConnID()), at.String()} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestDataDatagramsFitEthernetMTU: a bulk sender's full-size DATA
// datagrams, frame trailer included, fit a 1500-byte IP MTU with their IPv4
// and UDP headers: 1518 bytes on an Ethernet wire, never a fragment.
func TestDataDatagramsFitEthernetMTU(t *testing.T) {
	n := newSimNet(t, 1, simWire)
	cli, _ := n.endpoint(Config{Transport: transport.Config{Mode: transport.ModeTACK, TransferBytes: 1 << 20}})
	peer := n.peer()
	n.Dial(cli, peer.addr)
	peer.accept()
	n.runFor(50 * sim.Millisecond)
	data := peer.arrivals(packet.TypeData)
	if len(data) == 0 {
		t.Fatal("no DATA arrived")
	}
	largest := 0
	for _, a := range data {
		largest = max(largest, a.size)
	}
	if ip := largest + 8 + 20; ip != 1500 {
		t.Fatalf("largest DATA datagram is %d bytes, a %d-byte IP packet; want it to fill a 1500-byte MTU exactly", largest, ip)
	}
}

// TestEveryDatagramFitsEthernetMTU watches every datagram two endpoints
// send while eight FEC-protected streams of 200 KiB cross a 100 Mbit/s
// path losing 2 % of its packets, and requires each, trailer included, to
// fit a 1500-byte IP packet.
func TestEveryDatagramFitsEthernetMTU(t *testing.T) {
	const streams, size = 8, 200 << 10
	n := newSimNet(t, 1, netem.Config{RateBps: 100e6, Delay: simOWD, Impair: netem.Impairments{LossRate: 0.02}})
	scfg := stream.Default()
	cfg := Config{Transport: transport.Config{Mode: transport.ModeTACK, Streams: &scfg}}
	srv, _ := n.endpoint(cfg)
	cli, _ := n.endpoint(cfg)
	largest := map[packet.Type]int{}
	n.Watch(false, func(_ *Endpoint, p *packet.Packet, _ sim.Time) {
		largest[p.Type] = max(largest[p.Type], p.DatagramLen())
	})
	srvConn, cliConn := n.connect(srv, cli)
	for i := 0; i < streams; i++ {
		ss, err := cliConn.OpenStreamOptions(stream.Options{FEC: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ss.Write(make([]byte, size)); err != nil {
			t.Fatal(err)
		}
		ss.Close()
	}
	var open []*stream.RecvStream
	got, buf := 0, make([]byte, 64<<10)
	if !n.runUntil(n.now()+30*sim.Second, func() bool {
		for rs := srvConn.Receiver().Streams().TryAccept(); rs != nil; rs = srvConn.Receiver().Streams().TryAccept() {
			open = append(open, rs)
		}
		for _, rs := range open {
			for k := 1; k > 0; {
				k, _, _ = rs.ReadAvailable(buf)
				got += k
			}
		}
		return got == streams*size
	}) {
		t.Fatalf("%d of %d bytes delivered by %v", got, streams*size, n.now())
	}
	for _, typ := range []packet.Type{packet.TypeData, packet.TypeRepair, packet.TypeTACK, packet.TypeIACK} {
		if largest[typ] == 0 {
			t.Errorf("no %v datagram was sent", typ)
		}
	}
	for typ, size := range largest {
		t.Logf("largest %v: %d-byte datagram", typ, size)
		if size > packet.MaxDatagram {
			t.Errorf("largest %v datagram is %d bytes, a %d-byte IP packet over the 1500-byte MTU", typ, size, size+28)
		}
	}
}
