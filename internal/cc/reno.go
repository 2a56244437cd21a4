package cc

import (
	"github.com/tacktp/tack/internal/ackpolicy"
	"github.com/tacktp/tack/internal/sim"
)

func init() {
	Register("reno", func() Controller { return NewReno() })
}

// Reno is classic NewReno-style AIMD: slow start to ssthresh, then one MSS
// of growth per RTT, halving on loss.
type Reno struct {
	cwnd     int
	ssthresh int
	srtt     sim.Time
	// acked accumulates bytes for congestion-avoidance growth.
	acked int
}

// NewReno constructs a Reno controller.
func NewReno() *Reno {
	return &Reno{cwnd: InitialWindow, ssthresh: maxWindow}
}

// Name implements Controller.
func (r *Reno) Name() string { return "reno" }

// OnAck implements Controller.
func (r *Reno) OnAck(a Ack) {
	if a.SRTT > 0 {
		r.srtt = a.SRTT
	}
	if a.AppLimited {
		return
	}
	if r.cwnd < r.ssthresh {
		// Slow start: grow by bytes acked (ABC, one MSS per MSS acked).
		r.cwnd += a.Bytes
	} else {
		// Congestion avoidance: one MSS per cwnd of acked bytes.
		r.acked += a.Bytes
		if r.acked >= r.cwnd {
			r.acked -= r.cwnd
			r.cwnd += ackpolicy.MSS
		}
	}
	if r.cwnd > maxWindow {
		r.cwnd = maxWindow
	}
}

// OnLoss implements Controller.
func (r *Reno) OnLoss(l Loss) {
	if l.Timeout {
		r.ssthresh = max(r.cwnd/2, 2*ackpolicy.MSS)
		r.cwnd = 2 * ackpolicy.MSS
		return
	}
	r.ssthresh = max(r.cwnd/2, 2*ackpolicy.MSS)
	r.cwnd = r.ssthresh
	r.acked = 0
}

// CWND implements Controller.
func (r *Reno) CWND() int { return r.cwnd }

// PacingRate implements Controller.
func (r *Reno) PacingRate() float64 { return pacingFromWindow(r.cwnd, r.srtt) }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
