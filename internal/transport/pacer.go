package transport

import (
	"github.com/tacktp/tack/internal/ackpolicy"
	"github.com/tacktp/tack/internal/sim"
)

// pacer is a token bucket metering out transmission credit at a
// configurable rate with a bounded burst allowance. TACK-based senders
// replace ACK-clocked bursts with evenly spaced transmissions at a pacing
// rate derived from the congestion controller (paper §5.3): without
// pacing, one delayed TACK would release a whole window at once, inflating
// queues and loss.
type pacer struct {
	rateBps    float64
	burstBytes float64 // bucket capacity
	tokens     float64 // current credit in bytes
	lastRefill sim.Time
}

// newPacer returns a pacer at rateBps whose bucket holds burstBytes of
// credit (minimum one full-sized packet). The bucket starts full.
func newPacer(rateBps float64, burstBytes int) *pacer {
	burstBytes = max(burstBytes, ackpolicy.MSS)
	return &pacer{rateBps: rateBps, burstBytes: float64(burstBytes), tokens: float64(burstBytes)}
}

// SetRate updates the pacing rate, first banking credit accrued at the old
// rate.
func (p *pacer) SetRate(now sim.Time, rateBps float64) {
	p.refill(now)
	p.rateBps = rateBps
}

func (p *pacer) refill(now sim.Time) {
	if now <= p.lastRefill {
		return
	}
	elapsed := (now - p.lastRefill).Seconds()
	p.tokens += elapsed * p.rateBps / 8
	if p.tokens > p.burstBytes {
		p.tokens = p.burstBytes
	}
	p.lastRefill = now
}

// CanSend reports whether a packet of size bytes may be sent at time now.
func (p *pacer) CanSend(now sim.Time, size int) bool {
	p.refill(now)
	return p.tokens >= float64(size)
}

// OnSend debits credit for a transmitted packet. The balance may go
// negative (a packet is never split), delaying the next send.
func (p *pacer) OnSend(now sim.Time, size int) {
	p.refill(now)
	p.tokens -= float64(size)
}

// NextSendTime returns the earliest time a packet of size bytes may be
// sent. If credit is already available it returns now.
func (p *pacer) NextSendTime(now sim.Time, size int) sim.Time {
	p.refill(now)
	deficit := float64(size) - p.tokens
	if deficit <= 0 {
		return now
	}
	if p.rateBps <= 0 {
		// Rate zero: effectively blocked; poll again in a while.
		return now + sim.Second
	}
	wait := deficit * 8 / p.rateBps
	return now + sim.Time(wait*1e9) + sim.Nanosecond
}
