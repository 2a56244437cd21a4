package cc

import (
	"math"

	"github.com/tacktp/tack/internal/ackpolicy"
	"github.com/tacktp/tack/internal/sim"
)

func init() {
	Register("cubic", func() Controller { return NewCubic() })
}

// CUBIC constants (RFC 8312): scaling constant C and multiplicative
// decrease factor beta.
const (
	cubicC    = 0.4
	cubicBeta = 0.7
)

// Cubic implements the CUBIC window growth function: after a loss at window
// Wmax, the window follows W(t) = C·(t−K)³ + Wmax with K = ∛(Wmax·(1−β)/C),
// giving fast recovery toward Wmax and aggressive probing beyond it.
type Cubic struct {
	cwnd     int
	ssthresh int
	srtt     sim.Time

	wMax       float64  // window at last reduction, in MSS units
	k          float64  // time to reach wMax, seconds
	epochStart sim.Time // start of the current growth epoch
	inEpoch    bool
	acked      int // byte accumulator for Reno-friendly region
}

// NewCubic constructs a CUBIC controller.
func NewCubic() *Cubic {
	return &Cubic{cwnd: InitialWindow, ssthresh: maxWindow}
}

// Name implements Controller.
func (c *Cubic) Name() string { return "cubic" }

// OnAck implements Controller.
func (c *Cubic) OnAck(a Ack) {
	if a.SRTT > 0 {
		c.srtt = a.SRTT
	}
	if a.AppLimited {
		return
	}
	if c.cwnd < c.ssthresh {
		c.cwnd += a.Bytes
		if c.cwnd > maxWindow {
			c.cwnd = maxWindow
		}
		return
	}
	if !c.inEpoch {
		c.inEpoch = true
		c.epochStart = a.Now
		cur := float64(c.cwnd) / ackpolicy.MSS
		if cur < c.wMax {
			c.k = math.Cbrt(c.wMax * (1 - cubicBeta) / cubicC)
		} else {
			c.k = 0
			c.wMax = cur
		}
	}
	t := (a.Now - c.epochStart).Seconds()
	target := cubicC*math.Pow(t-c.k, 3) + c.wMax // in MSS
	cur := float64(c.cwnd) / ackpolicy.MSS
	if target > cur {
		// Approach the cubic target over roughly one RTT.
		c.acked += a.Bytes
		inc := (target - cur) / cur // MSS per MSS acked
		grow := int(inc * float64(c.acked))
		if grow > 0 {
			c.cwnd += grow
			c.acked = 0
		}
	} else {
		// Reno-friendly floor: one MSS per window.
		c.acked += a.Bytes
		if c.acked >= c.cwnd {
			c.acked -= c.cwnd
			c.cwnd += ackpolicy.MSS
		}
	}
	if c.cwnd > maxWindow {
		c.cwnd = maxWindow
	}
}

// OnLoss implements Controller.
func (c *Cubic) OnLoss(l Loss) {
	c.wMax = float64(c.cwnd) / ackpolicy.MSS
	c.inEpoch = false
	if l.Timeout {
		c.ssthresh = max(int(float64(c.cwnd)*cubicBeta), 2*ackpolicy.MSS)
		c.cwnd = 2 * ackpolicy.MSS
		return
	}
	c.cwnd = max(int(float64(c.cwnd)*cubicBeta), 2*ackpolicy.MSS)
	c.ssthresh = c.cwnd
	c.acked = 0
}

// CWND implements Controller.
func (c *Cubic) CWND() int { return c.cwnd }

// PacingRate implements Controller.
func (c *Cubic) PacingRate() float64 { return pacingFromWindow(c.cwnd, c.srtt) }
