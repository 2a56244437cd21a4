package cc

import (
	"github.com/tacktp/tack/internal/ackpolicy"
	"github.com/tacktp/tack/internal/sim"
)

func init() {
	Register("pcc", func() Controller { return NewPCC() })
}

// PCC is a simplified PCC-Allegro-style online rate prober: it runs
// monitor intervals at rate·(1±epsilon), scores each with a
// throughput-minus-loss-penalty utility, and moves the base rate toward
// the better-scoring direction with adaptive step size.
type PCC struct {
	srtt   sim.Time
	minRTT sim.Time

	rate    float64 // base sending rate, bits/s
	epsilon float64
	step    float64 // multiplicative step per decision

	// Monitor-interval accounting: alternate +epsilon / -epsilon trials.
	phase      int // 0 probing up, 1 probing down
	trialStart sim.Time
	trialAcked int64
	trialLost  int64
	utilUp     float64
	haveUp     bool
	lastDir    int
	streak     int
}

// NewPCC constructs a PCC-style controller starting at 1 Mbit/s.
func NewPCC() *PCC {
	return &PCC{rate: 1e6, epsilon: 0.05, step: 1.05}
}

// Name implements Controller.
func (p *PCC) Name() string { return "pcc" }

// utility scores a monitor interval: throughput penalized by loss
// (Allegro-style sigmoid approximated with a steep linear penalty).
func (p *PCC) utility(acked, lost int64) float64 {
	total := acked + lost
	if total == 0 {
		return 0
	}
	lossRate := float64(lost) / float64(total)
	tput := float64(acked)
	return tput * (1 - 10*lossRate)
}

// OnAck implements Controller.
func (p *PCC) OnAck(a Ack) {
	if a.SRTT > 0 {
		p.srtt = a.SRTT
	}
	if a.MinRTT > 0 && (p.minRTT == 0 || a.MinRTT < p.minRTT) {
		p.minRTT = a.MinRTT
	}
	p.trialAcked += int64(a.Bytes)
	interval := p.srtt
	if interval <= 0 {
		interval = 100 * sim.Millisecond
	}
	if p.trialStart == 0 {
		p.trialStart = a.Now
		return
	}
	if a.Now-p.trialStart < interval {
		return
	}
	// Close the monitor interval.
	u := p.utility(p.trialAcked, p.trialLost)
	p.trialAcked, p.trialLost = 0, 0
	p.trialStart = a.Now
	if p.phase == 0 {
		p.utilUp = u
		p.haveUp = true
		p.phase = 1
		return
	}
	p.phase = 0
	if !p.haveUp {
		return
	}
	dir := 1
	if u > p.utilUp { // down-probe scored better
		dir = -1
	}
	if u < 0 && p.utilUp < 0 {
		// Both trials unprofitable (heavy loss): always retreat.
		dir = -1
	}
	if dir == p.lastDir {
		p.streak++
		if p.streak >= 2 && p.step < 1.25 {
			p.step *= 1.03
		}
	} else {
		p.streak = 0
		p.step = 1.05
		p.lastDir = dir
	}
	if dir > 0 {
		p.rate *= p.step
	} else {
		p.rate /= p.step
	}
	if p.rate < 64e3 {
		p.rate = 64e3
	}
	if maxR := float64(maxWindow) * 8; p.rate > maxR {
		p.rate = maxR
	}
}

// OnLoss implements Controller.
func (p *PCC) OnLoss(l Loss) {
	p.trialLost += int64(l.Bytes)
	if l.Timeout {
		p.rate /= 2
		if p.rate < 64e3 {
			p.rate = 64e3
		}
	}
}

// CWND implements Controller: PCC is rate-based; expose 2x the rate·RTT
// product so the window is never the limiter.
func (p *PCC) CWND() int {
	rtt := p.srtt
	if rtt <= 0 {
		rtt = 100 * sim.Millisecond
	}
	w := int(p.rate / 8 * rtt.Seconds() * 2)
	if w < 4*ackpolicy.MSS {
		w = 4 * ackpolicy.MSS
	}
	if w > maxWindow {
		w = maxWindow
	}
	return w
}

// PacingRate implements Controller, applying the probe perturbation.
func (p *PCC) PacingRate() float64 {
	if p.phase == 0 {
		return p.rate * (1 + p.epsilon)
	}
	return p.rate * (1 - p.epsilon)
}
