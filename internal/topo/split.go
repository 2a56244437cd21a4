package topo

import (
	"github.com/tacktp/tack/internal/mac"
	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/phy"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/transport"
)

// mediumFor builds an 802.11 medium from a WLANConfig.
func mediumFor(loop *sim.Loop, cfg WLANConfig) *mac.Medium {
	m := mac.NewMedium(loop, phy.Get(cfg.Standard))
	m.PER = cfg.PER
	return m
}

// SplitFlow implements the TCP-splitting deployment the paper's §7
// discusses: a proxy at the access point terminates the client's WLAN-side
// connection and relays the bytestream over an independent WAN-side
// connection. The last-mile WLAN loop converges fast (small RTT), and the
// WAN connection runs its own control loop — at the cost of the proxy
// holding unacknowledged application data (the end-to-end reliability
// caveat the paper raises).
type SplitFlow struct {
	// Client is the sending endpoint on the WLAN side.
	Client *transport.Sender
	// ProxyRecv terminates the WLAN connection at the AP.
	ProxyRecv *transport.Receiver
	// ProxySend originates the WAN connection at the AP.
	ProxySend *transport.Sender
	// Server is the final receiving endpoint.
	Server *transport.Receiver

	relayed int64
}

// NewSplitFlow builds client → (802.11) → proxy → (WAN) → server with a
// split transport connection per segment. cfgWLAN drives the client↔proxy
// leg, cfgWAN the proxy↔server leg; the WAN leg runs app-paced, fed by the
// bytes the proxy receiver delivers.
func NewSplitFlow(loop *sim.Loop, cfgWLAN, cfgWAN transport.Config, wlan WLANConfig, wan WANConfig) (*SplitFlow, error) {
	sf := &SplitFlow{}

	// WLAN leg between two stations.
	m := mediumFor(loop, wlan)
	sta := m.AddStation("client", wlan.queueFrames())
	ap := m.AddStation("proxy", wlan.queueFrames())
	client, err := transport.NewSender(loop, cfgWLAN, func(p *packet.Packet) {
		sta.Send(ap, p.WireSize(), p)
	})
	if err != nil {
		return nil, err
	}
	proxyRecv := transport.NewReceiver(loop, cfgWLAN, func(p *packet.Packet) {
		ap.Send(sta, p.WireSize(), p)
	})

	// WAN leg between the proxy and the server.
	cfgWAN.AppPaced = true
	fwd, rev := wan.links()
	var proxySend *transport.Sender
	var server *transport.Receiver
	wanFwd := netem.NewLink(loop, fwd, func(pl any, n int) { server.OnPacket(pl.(*packet.Packet)) })
	wanRev := netem.NewLink(loop, rev, func(pl any, n int) { proxySend.OnPacket(pl.(*packet.Packet)) })
	proxySend, err = transport.NewSender(loop, cfgWAN, func(p *packet.Packet) { wanFwd.Send(p, p.WireSize()) })
	if err != nil {
		return nil, err
	}
	server = transport.NewReceiver(loop, cfgWAN, func(p *packet.Packet) { wanRev.Send(p, p.WireSize()) })

	// Wire WLAN deliveries.
	ap.Receive = func(f *mac.Frame) {
		proxyRecv.OnPacket(f.Payload.(*packet.Packet))
		// Relay every newly delivered byte onto the WAN leg.
		if d := proxyRecv.Delivered() - sf.relayed; d > 0 {
			sf.relayed += d
			proxySend.AddBytes(d)
		}
	}
	sta.Receive = func(f *mac.Frame) {
		client.OnPacket(f.Payload.(*packet.Packet))
	}

	sf.Client = client
	sf.ProxyRecv = proxyRecv
	sf.ProxySend = proxySend
	sf.Server = server
	return sf, nil
}

// Start launches both legs.
func (sf *SplitFlow) Start() {
	sf.Client.Start()
	sf.ProxySend.Start()
}

// ProxyBacklog returns bytes received from the client but not yet
// acknowledged end-to-end by the server — the data at risk if the proxy
// fails (§7's reliability caveat).
func (sf *SplitFlow) ProxyBacklog() int64 {
	return sf.relayed - int64(sf.ProxySend.CumAcked())
}
