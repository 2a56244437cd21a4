package cc

import (
	"github.com/tacktp/tack/internal/ackpolicy"
	"github.com/tacktp/tack/internal/sim"
)

func init() {
	Register("vegas", func() Controller { return NewVegas() })
}

// Vegas parameters: keep between alpha and beta packets queued at the
// bottleneck.
const (
	vegasAlpha = 2 // packets
	vegasBeta  = 4
)

// Vegas is the classic delay-based controller: it estimates the backlog
// diff = cwnd·(1 − baseRTT/RTT) in packets and nudges the window to keep
// the backlog between alpha and beta.
type Vegas struct {
	cwnd    int
	srtt    sim.Time
	baseRTT sim.Time
	// Adjust once per RTT.
	lastAdjust sim.Time
	slowStart  bool
}

// NewVegas constructs a Vegas controller.
func NewVegas() *Vegas {
	return &Vegas{cwnd: InitialWindow, slowStart: true}
}

// Name implements Controller.
func (v *Vegas) Name() string { return "vegas" }

// OnAck implements Controller.
func (v *Vegas) OnAck(a Ack) {
	if a.SRTT > 0 {
		v.srtt = a.SRTT
	}
	if a.MinRTT > 0 && (v.baseRTT == 0 || a.MinRTT < v.baseRTT) {
		v.baseRTT = a.MinRTT
	}
	if a.AppLimited || v.baseRTT == 0 || v.srtt <= 0 {
		return
	}
	diffPkts := float64(v.cwnd) / ackpolicy.MSS * (1 - float64(v.baseRTT)/float64(v.srtt))
	if v.slowStart {
		// Vegas slow start: double every other RTT while backlog < alpha... we
		// approximate with byte-counted growth until the backlog appears.
		if diffPkts < vegasAlpha {
			v.cwnd += a.Bytes
		} else {
			v.slowStart = false
		}
		v.clamp()
		return
	}
	if a.Now-v.lastAdjust < v.srtt {
		return
	}
	v.lastAdjust = a.Now
	switch {
	case diffPkts < vegasAlpha:
		v.cwnd += ackpolicy.MSS
	case diffPkts > vegasBeta:
		v.cwnd -= ackpolicy.MSS
	}
	v.clamp()
}

// OnLoss implements Controller.
func (v *Vegas) OnLoss(l Loss) {
	v.slowStart = false
	if l.Timeout {
		v.cwnd = 2 * ackpolicy.MSS
		return
	}
	v.cwnd = max(v.cwnd*3/4, 2*ackpolicy.MSS)
}

func (v *Vegas) clamp() {
	if v.cwnd > maxWindow {
		v.cwnd = maxWindow
	}
	if v.cwnd < 2*ackpolicy.MSS {
		v.cwnd = 2 * ackpolicy.MSS
	}
}

// CWND implements Controller.
func (v *Vegas) CWND() int { return v.cwnd }

// PacingRate implements Controller.
func (v *Vegas) PacingRate() float64 { return pacingFromWindow(v.cwnd, v.srtt) }
