package cc

import (
	"github.com/tacktp/tack/internal/ackpolicy"
	"github.com/tacktp/tack/internal/sim"
)

func init() {
	Register("copa", func() Controller { return NewCopa() })
}

// copaDelta is Copa's delay-sensitivity parameter: the target rate is
// 1/(delta·dq) packets/s where dq is the standing queueing delay.
const copaDelta = 0.5

// Copa is a simplified Copa-style delay controller (Arun & Balakrishnan,
// NSDI'18): it steers the window toward target = cwnd_bdp + 1/(delta·dq)
// packets, increasing velocity when consistently on one side of the target.
type Copa struct {
	cwnd     int
	srtt     sim.Time
	minRTT   sim.Time
	velocity float64
	lastDir  int
	dirCount int
	lastAdj  sim.Time
	slow     bool
}

// NewCopa constructs a Copa-style controller.
func NewCopa() *Copa {
	return &Copa{cwnd: InitialWindow, velocity: 1, slow: true}
}

// Name implements Controller.
func (c *Copa) Name() string { return "copa" }

// OnAck implements Controller.
func (c *Copa) OnAck(a Ack) {
	if a.SRTT > 0 {
		c.srtt = a.SRTT
	}
	if a.MinRTT > 0 && (c.minRTT == 0 || a.MinRTT < c.minRTT) {
		c.minRTT = a.MinRTT
	}
	if a.AppLimited || c.srtt <= 0 || c.minRTT <= 0 {
		return
	}
	dq := c.srtt - c.minRTT
	if c.slow {
		if dq < c.minRTT/10 {
			c.cwnd += a.Bytes
			c.clamp()
			return
		}
		c.slow = false
	}
	if a.Now-c.lastAdj < c.srtt/2 {
		return
	}
	c.lastAdj = a.Now
	// Target window in packets: rate 1/(delta·dq) times RTT, i.e.
	// srtt/(delta·dq) packets.
	var targetPkts float64
	if dq <= 0 {
		targetPkts = float64(maxWindow) / ackpolicy.MSS
	} else {
		targetPkts = float64(c.srtt) / (copaDelta * float64(dq))
	}
	curPkts := float64(c.cwnd) / ackpolicy.MSS
	dir := 1
	if curPkts > targetPkts {
		dir = -1
	}
	if dir == c.lastDir {
		c.dirCount++
		if c.dirCount >= 3 {
			c.velocity *= 2
			if c.velocity > 32 {
				c.velocity = 32
			}
			c.dirCount = 0
		}
	} else {
		c.velocity = 1
		c.dirCount = 0
		c.lastDir = dir
	}
	c.cwnd += dir * int(c.velocity/(copaDelta)*ackpolicy.MSS/2)
	c.clamp()
}

// OnLoss implements Controller. Copa treats loss mildly (delay is the main
// signal) but collapses on timeout.
func (c *Copa) OnLoss(l Loss) {
	c.slow = false
	if l.Timeout {
		c.cwnd = 2 * ackpolicy.MSS
		return
	}
	c.cwnd = max(c.cwnd/2, 2*ackpolicy.MSS)
	c.velocity = 1
}

func (c *Copa) clamp() {
	if c.cwnd > maxWindow {
		c.cwnd = maxWindow
	}
	if c.cwnd < 2*ackpolicy.MSS {
		c.cwnd = 2 * ackpolicy.MSS
	}
}

// CWND implements Controller.
func (c *Copa) CWND() int { return c.cwnd }

// PacingRate implements Controller.
func (c *Copa) PacingRate() float64 { return pacingFromWindow(c.cwnd, c.srtt) }
