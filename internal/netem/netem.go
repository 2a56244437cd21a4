// Package netem emulates adversarial network paths with one link model,
// Link: impairment verdict → drop-tail queue and serializer → propagation
// delay, scheduled on whatever sim.Loop it is handed. Two clocks drive it:
//
//   - the simulator's virtual clock, where a Link carries datagrams
//     between sim-driven endpoints;
//   - wall time, in UDPProxy: a real-socket UDP relay whose two directions
//     are each one Link on a loop pinned to the wall clock, plus a Rebind
//     hook that emulates a NAT timeout / Wi-Fi roam by changing the
//     proxy's server-facing source address mid-flow.
//
// It stands in for the hardware network emulator (Spirent Attero) the TACK
// paper uses to impose WAN latency and impairments between the wireless
// router and the server (paper §6.1, §6.5): bandwidth, RTT, data-path loss
// ρ and ACK-path loss ρ′ are exactly the knobs exposed here.
//
// Threading and ownership rules: a Link is confined to its sim.Loop —
// Send, the Stats fields and the Deliver callback all run there. A []byte
// payload is the link's to corrupt in place, so a caller hands over a
// buffer it will not reuse; any other payload is never touched. A
// UDPProxy serializes each direction's loop under that direction's mutex
// and copies every datagram off its read buffer before the Link sees it.
// Impairment verdicts come from the loop's seeded RNG, so the
// drop/duplicate/corrupt/jitter sequence — and the bits corruption flips —
// is reproducible for a given seed on either clock.
package netem

import (
	"math/rand"

	"github.com/tacktp/tack/internal/sim"
)

// Deliver is the downstream hand-off invoked for every object that survives
// the link.
type Deliver func(payload any, size int)

// Config describes one direction of a link.
type Config struct {
	// RateBps is the serialization rate in bits/s; zero means infinite
	// (no serialization delay, no queueing).
	RateBps float64
	// Delay is the one-way propagation delay.
	Delay sim.Time
	// QueueBytes bounds the drop-tail queue; zero selects a default of one
	// bandwidth-delay product (minimum 64 KiB).
	QueueBytes int
	// Impair is the per-packet impairment model (loss, burst loss,
	// duplication, corruption, reordering, jitter); the zero value changes
	// nothing.
	Impair Impairments
}

// queueLimit returns the queue bound in force for the config.
func (c Config) queueLimit() int {
	if c.QueueBytes > 0 {
		return c.QueueBytes
	}
	bdp := int(c.RateBps / 8 * c.Delay.Seconds())
	if bdp < 64*1024 {
		bdp = 64 * 1024
	}
	return bdp
}

// Stats counts what one link did. Once the link is idle,
// Sent + Duplicated == Dropped + Overflows + Delivered, plus Corrupted
// when the payloads are not []byte (those corrupted packets are dropped).
type Stats struct {
	Sent       int
	Dropped    int // loss-model drops (Bernoulli and Gilbert–Elliott)
	Corrupted  int // corrupted packets: bits flipped in a []byte, else dropped (failed FCS)
	Duplicated int // extra copies injected by the duplication model
	Overflows  int // queue-full drops, per copy
	Reordered  int // packets held back by the reordering model
	Delivered  int // copies handed to Deliver
	SentBytes  int64
}

// Link is one unidirectional emulated path.
type Link struct {
	Stats

	loop *sim.Loop
	cfg  Config
	out  Deliver
	rng  *rand.Rand
	imp  *Impairer

	queueBytes int
	queueLimit int
	// busyUntil is when the serializer frees up.
	busyUntil sim.Time
}

// NewLink builds a link delivering surviving packets to out. Its verdicts
// draw from loop.Rand().
func NewLink(loop *sim.Loop, cfg Config, out Deliver) *Link {
	rng := loop.Rand()
	return &Link{
		loop:       loop,
		cfg:        cfg,
		out:        out,
		rng:        rng,
		imp:        NewImpairer(cfg.Impair, rng),
		queueLimit: cfg.queueLimit(),
	}
}

// Send offers a packet of the given size to the link. One verdict decides
// its fate: dropped, corrupted (a []byte payload has its bits flipped and
// goes on; any other payload fails the frame check and is dropped), held
// back, duplicated.
func (l *Link) Send(payload any, size int) {
	l.Sent++
	v := l.imp.Next()
	if v.Drop {
		l.Dropped++
		return
	}
	if v.Corrupt {
		l.Corrupted++
		b, ok := payload.([]byte)
		if !ok {
			return
		}
		CorruptBytes(b, l.rng)
	}
	if v.Reorder {
		l.Reordered++
	}
	extra := v.Delay(l.cfg.Impair)
	l.transmit(payload, size, extra)
	if v.Duplicate {
		l.Duplicated++
		l.transmit(payload, size, extra)
	}
}

// transmit runs one copy of a surviving packet through the queue/serializer
// and schedules its delivery.
func (l *Link) transmit(payload any, size int, extra sim.Time) {
	if l.cfg.RateBps <= 0 {
		// Infinite-rate link: pure delay line.
		l.SentBytes += int64(size)
		l.loop.After(l.cfg.Delay+extra, func() {
			l.Delivered++
			l.out(payload, size)
		})
		return
	}
	if l.queueBytes+size > l.queueLimit {
		l.Overflows++
		return
	}
	now := l.loop.Now()
	l.queueBytes += size
	l.SentBytes += int64(size)
	ser := sim.Time(float64(size*8) / l.cfg.RateBps * 1e9)
	start := l.busyUntil
	if start < now {
		start = now
	}
	l.busyUntil = start + ser
	done := l.busyUntil
	l.loop.At(done, func() {
		l.queueBytes -= size
		l.loop.After(l.cfg.Delay+extra, func() {
			l.Delivered++
			l.out(payload, size)
		})
	})
}

// Symmetric returns a duplex config pair with the same rate/delay both ways
// but distinct loss rates for the data and ACK directions (ρ, ρ′).
func Symmetric(rateBps float64, owd sim.Time, queueBytes int, dataLoss, ackLoss float64) (fwd, rev Config) {
	fwd = Config{RateBps: rateBps, Delay: owd, QueueBytes: queueBytes, Impair: Impairments{LossRate: dataLoss}}
	rev = Config{RateBps: rateBps, Delay: owd, QueueBytes: queueBytes, Impair: Impairments{LossRate: ackLoss}}
	return fwd, rev
}
