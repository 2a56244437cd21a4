package experiments

// The paper's three path shapes on the sim driver, and the flow the figures
// measure over them:
//
//   - WLAN: two stations contending on one 802.11 medium (§6.3) — the
//     forward data path and the reverse ACK path share the channel, which
//     is precisely where TACK's ACK reduction pays off.
//   - WAN: a duplex wired emulated link (§6.6) with rate/delay/loss knobs.
//   - Hybrid: STA ↔ AP over 802.11 plus AP ↔ server over the emulated WAN
//     (§6.5, Figure 12).
//
// Every path carries the endpoint's encoded datagrams and charges each its
// length plus Ethernet/IPv4/UDP framing, in airtime and in serialization.

import (
	"net"

	"github.com/tacktp/tack/internal/endpoint"
	"github.com/tacktp/tack/internal/mac"
	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/phy"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/stats"
	"github.com/tacktp/tack/internal/transport"
)

const (
	// wlanQueue bounds each station's MAC queue. For a transport endpoint
	// the MAC queue models the local driver/qdisc, which backpressures the
	// stack rather than dropping: congestion control, not tail drop, bounds
	// its depth.
	wlanQueue = 1 << 18
)

// WLANPath puts hosts a and b on medium m as two stations; each datagram
// is one MSDU.
func WLANPath(n *endpoint.SimNet, a, b net.IP, m *mac.Medium) {
	sa, sb := m.AddStation("sta", wlanQueue), m.AddStation("ap", wlanQueue)
	sa.Receive = func(f *mac.Frame) { n.Deliver(f.Payload, f.Size) }
	sb.Receive = sa.Receive
	n.Route(a, b, func(d any, size int) { sa.Send(sb, size+packet.OverheadEthIPUDP, d) })
	n.Route(b, a, func(d any, size int) { sb.Send(sa, size+packet.OverheadEthIPUDP, d) })
}

// WANPath joins hosts a and b with one netem.Link per direction, up
// (a → b) and down, and returns the two links for their statistics.
func WANPath(n *endpoint.SimNet, a, b net.IP, up, down netem.Config) (ab, ba *netem.Link) {
	ab = netem.NewLink(n.Loop(), up, n.Deliver)
	ba = netem.NewLink(n.Loop(), down, n.Deliver)
	n.Route(a, b, func(d any, size int) { ab.Send(d, size+packet.OverheadEthIPUDP) })
	n.Route(b, a, func(d any, size int) { ba.Send(d, size+packet.OverheadEthIPUDP) })
	return ab, ba
}

// HybridPath chains an 802.11 hop between host a and an access point on
// medium m with a WAN hop (up, down) between the access point and host b,
// as in the paper's Figure 12; datagrams cross both hops each way.
func HybridPath(n *endpoint.SimNet, a, b net.IP, m *mac.Medium, up, down netem.Config) {
	sta, ap := m.AddStation("sta", wlanQueue), m.AddStation("ap", wlanQueue)
	apToB := netem.NewLink(n.Loop(), up, n.Deliver)
	bToAP := netem.NewLink(n.Loop(), down, func(d any, size int) { ap.Send(sta, size, d) })
	ap.Receive = func(f *mac.Frame) { apToB.Send(f.Payload, f.Size) }
	sta.Receive = func(f *mac.Frame) { n.Deliver(f.Payload, f.Size) }
	n.Route(a, b, func(d any, size int) { sta.Send(ap, size+packet.OverheadEthIPUDP, d) })
	n.Route(b, a, func(d any, size int) { bToAP.Send(d, size+packet.OverheadEthIPUDP) })
}

// medium returns a clean 802.11 medium of standard std on n's loop.
func medium(n *endpoint.SimNet, std phy.Standard) *mac.Medium {
	return mac.NewMedium(n.Loop(), phy.Get(std))
}

// wanConfig parameterizes a wired duplex path: data direction (up) and ACK
// direction (down).
type wanConfig struct {
	RateBps    float64
	OWD        sim.Time // one-way propagation delay
	QueueBytes int
	// Data impairs the data direction and Ack the ACK direction: ρ is
	// Data.LossRate and ρ′ is Ack.LossRate; reordering (paper §7), burst
	// loss, duplication and jitter sit beside them.
	Data, Ack netem.Impairments
}

// links returns the per-direction netem configs.
func (c wanConfig) links() (up, down netem.Config) {
	up = netem.Config{RateBps: c.RateBps, Delay: c.OWD, QueueBytes: c.QueueBytes, Impair: c.Data}
	down = netem.Config{RateBps: c.RateBps, Delay: c.OWD, QueueBytes: c.QueueBytes, Impair: c.Ack}
	return up, down
}

// newNet returns an empty network seeded with seed and its two hosts: the
// client side a and the server side b.
func newNet(seed int64) (n *endpoint.SimNet, a, b net.IP) {
	n = endpoint.NewSimNet(seed, netem.Config{})
	return n, n.Host(), n.Host()
}

// simFault carries an error of the sim driver — a broken invariant, a
// configuration that does not build — out of a runner; Run returns it.
type simFault struct{ error }

// must raises err, if any, as a simFault.
func must(err error) {
	if err != nil {
		panic(simFault{err})
	}
}

// runTo runs n until virtual time end.
func runTo(n *endpoint.SimNet, end sim.Time) {
	_, err := n.RunUntil(end, nil)
	must(err)
}

// newEndpoint adds an endpoint built from cfg on host, without the flight
// recorder: no figure reads a post-mortem.
func newEndpoint(n *endpoint.SimNet, host net.IP, cfg transport.Config) *endpoint.Endpoint {
	ep, err := n.Endpoint(host, endpoint.Config{Transport: cfg, FlightRecorder: -1})
	must(err)
	return ep
}

// flow is one connection between two sim-driven endpoints built from one
// transport.Config: the client dials and sends, the server accepts and
// receives.
type flow struct {
	n   *endpoint.SimNet
	srv *endpoint.Endpoint
	snd *endpoint.Conn // dialed: the Sender half
	rcv *endpoint.Conn // accepted: the Receiver half; nil until then
	// owd collects the one-way delay of every DATA datagram that reaches
	// the server: the time it left the path minus the time it entered.
	owd *stats.Summary
}

// dialFlow puts a client endpoint on host a and a server endpoint on host
// b and dials; the handshake runs with the network.
func dialFlow(n *endpoint.SimNet, a, b net.IP, cfg transport.Config) *flow {
	srv := newEndpoint(n, b, cfg)
	f := &flow{n: n, srv: srv, snd: n.Dial(newEndpoint(n, a, cfg), srv.LocalAddr()), owd: stats.NewSummary()}
	n.Watch(true, func(ep *endpoint.Endpoint, p *packet.Packet, entered sim.Time) {
		if ep == srv && p.Type == packet.TypeData {
			f.owd.Add((n.Loop().Now() - entered).Seconds())
		}
	})
	return f
}

// sender is the flow's sending engine.
func (f *flow) sender() *transport.Sender { return f.snd.Sender() }

// receiver is the flow's receiving engine, nil until the server accepted.
func (f *flow) receiver() *transport.Receiver {
	if f.rcv == nil {
		if f.rcv = f.n.Accept(f.srv); f.rcv == nil {
			return nil
		}
	}
	return f.rcv.Receiver()
}

// rcvStats is the receiving engine's counters, zero until the server
// accepted.
func (f *flow) rcvStats() (s transport.ReceiverStats) {
	if r := f.receiver(); r != nil {
		s = r.Stats
	}
	return s
}

// delivered is the bytes delivered in order to the server.
func (f *flow) delivered() int64 {
	if r := f.receiver(); r != nil {
		return r.Delivered()
	}
	return 0
}
