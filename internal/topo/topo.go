// Package topo composes network topologies and wires transport endpoints
// over them. It provides the three path shapes of the paper's evaluation:
//
//   - WLAN: two stations contending on one 802.11 medium (§6.3) — the
//     forward data path and the reverse ACK path share the channel, which
//     is precisely where TACK's ACK reduction pays off.
//   - WAN: a duplex wired emulated link (§6.6) with rate/delay/loss knobs.
//   - Hybrid: STA ↔ AP over 802.11 plus AP ↔ server over the emulated WAN
//     (§6.5, Figure 12).
package topo

import (
	"github.com/tacktp/tack/internal/mac"
	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/phy"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/stats"
	"github.com/tacktp/tack/internal/telemetry"
	"github.com/tacktp/tack/internal/transport"
)

// Path is a duplex packet conduit between a client side (A) and a server
// side (B).
type Path struct {
	// SendA injects a packet at the A (client/sender) side toward B.
	SendA func(*packet.Packet)
	// SendB injects a packet at the B side toward A.
	SendB func(*packet.Packet)
	// DeliverA is invoked for packets arriving at A. Set before traffic.
	DeliverA func(*packet.Packet)
	// DeliverB is invoked for packets arriving at B.
	DeliverB func(*packet.Packet)
}

// WLANConfig parameterizes a WLAN path.
type WLANConfig struct {
	Standard phy.Standard
	// PER is an optional per-MPDU error rate.
	PER float64
	// QueueFrames bounds each station's MAC queue. Zero selects a deep
	// default (256k frames): for a transport endpoint the MAC queue models
	// the local driver/qdisc, which backpressures the stack rather than
	// dropping — congestion control, not tail drop, bounds its depth.
	QueueFrames int
	// Tracer records MAC-level telemetry from the medium (nil disables).
	Tracer *telemetry.Tracer
}

func (c WLANConfig) queueFrames() int {
	if c.QueueFrames > 0 {
		return c.QueueFrames
	}
	return 1 << 18
}

// WLANPath builds a two-station 802.11 path. Returns the path and the
// medium for MAC-level statistics.
func WLANPath(loop *sim.Loop, cfg WLANConfig) (*Path, *mac.Medium) {
	m := mac.NewMedium(loop, phy.Get(cfg.Standard))
	m.PER = cfg.PER
	m.Tracer = cfg.Tracer
	sta := m.AddStation("sta", cfg.queueFrames())
	ap := m.AddStation("ap", cfg.queueFrames())
	p := &Path{}
	sta.Receive = func(f *mac.Frame) {
		if p.DeliverA != nil {
			p.DeliverA(f.Payload.(*packet.Packet))
		}
	}
	ap.Receive = func(f *mac.Frame) {
		if p.DeliverB != nil {
			p.DeliverB(f.Payload.(*packet.Packet))
		}
	}
	p.SendA = func(pkt *packet.Packet) { sta.Send(ap, pkt.WireSize(), pkt) }
	p.SendB = func(pkt *packet.Packet) { ap.Send(sta, pkt.WireSize(), pkt) }
	return p, m
}

// WANConfig parameterizes a wired duplex path: data direction (A→B) and
// ACK direction (B→A).
type WANConfig struct {
	RateBps    float64
	OWD        sim.Time // one-way propagation delay
	QueueBytes int
	// Data impairs the data direction (A→B) and Ack the ACK direction
	// (B→A): ρ is Data.LossRate and ρ′ is Ack.LossRate; reordering (paper
	// §7), burst loss, duplication, corruption and jitter sit beside them.
	// The zero value changes nothing.
	Data, Ack netem.Impairments
}

// links returns the per-direction netem configs for the WAN.
func (c WANConfig) links() (fwd, rev netem.Config) {
	fwd = netem.Config{RateBps: c.RateBps, Delay: c.OWD, QueueBytes: c.QueueBytes, Impair: c.Data}
	rev = netem.Config{RateBps: c.RateBps, Delay: c.OWD, QueueBytes: c.QueueBytes, Impair: c.Ack}
	return fwd, rev
}

// WANPath builds a duplex emulated wired path. Returns the path plus both
// directional links for statistics.
func WANPath(loop *sim.Loop, cfg WANConfig) (*Path, *netem.Link, *netem.Link) {
	p := &Path{}
	fwd, rev := cfg.links()
	aToB := netem.NewLink(loop, fwd, func(pl any, n int) {
		if p.DeliverB != nil {
			p.DeliverB(pl.(*packet.Packet))
		}
	})
	bToA := netem.NewLink(loop, rev, func(pl any, n int) {
		if p.DeliverA != nil {
			p.DeliverA(pl.(*packet.Packet))
		}
	})
	p.SendA = func(pkt *packet.Packet) { aToB.Send(pkt, pkt.WireSize()) }
	p.SendB = func(pkt *packet.Packet) { bToA.Send(pkt, pkt.WireSize()) }
	return p, aToB, bToA
}

// HybridPath chains a WLAN hop (client ↔ AP) and a WAN hop (AP ↔ server),
// mirroring the paper's Figure 12. Packets traverse both in each direction.
func HybridPath(loop *sim.Loop, wlan WLANConfig, wan WANConfig) (*Path, *mac.Medium, *netem.Link, *netem.Link) {
	p := &Path{}
	m := mac.NewMedium(loop, phy.Get(wlan.Standard))
	m.PER = wlan.PER
	m.Tracer = wlan.Tracer
	sta := m.AddStation("sta", wlan.queueFrames())
	ap := m.AddStation("ap", wlan.queueFrames())

	fwd, rev := wan.links()
	apToSrv := netem.NewLink(loop, fwd, func(pl any, n int) {
		if p.DeliverB != nil {
			p.DeliverB(pl.(*packet.Packet))
		}
	})
	srvToAp := netem.NewLink(loop, rev, func(pl any, n int) {
		// WAN → AP → WLAN → client.
		pkt := pl.(*packet.Packet)
		ap.Send(sta, pkt.WireSize(), pkt)
	})

	// Client → WLAN → AP → WAN → server.
	ap.Receive = func(f *mac.Frame) {
		pkt := f.Payload.(*packet.Packet)
		apToSrv.Send(pkt, pkt.WireSize())
	}
	sta.Receive = func(f *mac.Frame) {
		if p.DeliverA != nil {
			p.DeliverA(f.Payload.(*packet.Packet))
		}
	}
	p.SendA = func(pkt *packet.Packet) { sta.Send(ap, pkt.WireSize(), pkt) }
	p.SendB = func(pkt *packet.Packet) { srvToAp.Send(pkt, pkt.WireSize()) }
	return p, m, apToSrv, srvToAp
}

// Flow couples a transport Sender and Receiver over a Path (sender at A),
// and keeps the two sample logs the figures read — simulator bookkeeping a
// production receiver has no use for.
type Flow struct {
	Sender   *transport.Sender
	Receiver *transport.Receiver
	// OWD collects the one-way delay of every DATA packet that reaches the
	// receiver (the sim clock is shared, so these are true OWDs).
	OWD *stats.Summary
	// BlockedSamples records the receive buffer's head-of-line-blocked
	// volume at each acknowledgment (Figure 5(a)'s metric).
	BlockedSamples *stats.Summary
}

// NewFlow attaches a sender (A side) and receiver (B side) built from cfg
// to the path. Call Start to begin. The send hooks are read at each packet
// (a path's are set once, before traffic); the deliver hooks are chained by
// ConnID so several flows can share a path.
func NewFlow(loop *sim.Loop, cfg transport.Config, p *Path) (*Flow, error) {
	f := &Flow{OWD: stats.NewSummary(), BlockedSamples: stats.NewSummary()}
	snd, err := transport.NewSender(loop, cfg, func(pkt *packet.Packet) { p.SendA(pkt) })
	if err != nil {
		return nil, err
	}
	rcv := transport.NewReceiver(loop, cfg, func(pkt *packet.Packet) {
		switch pkt.Type {
		case packet.TypeTACK, packet.TypeIACK, packet.TypeFINACK:
			f.BlockedSamples.Add(float64(f.Receiver.Buffer().BlockedBytes()))
		}
		p.SendB(pkt)
	})
	f.Sender, f.Receiver = snd, rcv
	prevSnd, prevRcv := p.DeliverA, p.DeliverB
	p.DeliverA = func(pkt *packet.Packet) {
		if pkt.ConnID == cfg.ConnID {
			snd.OnPacket(pkt)
		} else if prevSnd != nil {
			prevSnd(pkt)
		}
	}
	p.DeliverB = func(pkt *packet.Packet) {
		if pkt.ConnID == cfg.ConnID {
			if pkt.Type == packet.TypeData {
				f.OWD.Add((loop.Now() - pkt.SentAt).Seconds())
			}
			rcv.OnPacket(pkt)
		} else if prevRcv != nil {
			prevRcv(pkt)
		}
	}
	return f, nil
}

// Start begins the flow's handshake.
func (f *Flow) Start() { f.Sender.Start() }
