package fec

import (
	"math"

	"github.com/tacktp/tack/internal/seqspace"
)

// Controller adapts the group geometry (k, r) to the loss regime the
// receiver reports. It runs two EWMA estimators off the sender's ack
// stream — the receiver-computed loss rate ρ and the mean gap run length
// from the unacked-block lists (a direct read on Gilbert-Elliott
// burstiness) — and derives geometry from a simple control law:
//
//	ρ̂  = EWMA loss rate, b̂ = EWMA burst length (≥ 1)
//	ρ* = clamp(gain·ρ̂, 1/GroupLen, MaxOverhead)   // overhead tracks loss, gain = 2
//	r  = clamp(round(b̂), 1, ⌊GroupLen·MaxOverhead⌋) // repairs sized to one burst
//	k  = clamp(round(r/ρ*), ⌈r/MaxOverhead⌉, GroupLen)
//
// so under light loss the stream pays one repair per max-length group, and
// as loss or burstiness grows the groups shorten and grow repairs until
// the overhead cap binds. SchemeXOR pins r = 1 and moves only k. With
// Adaptive off the geometry is static: the configured GroupLen with the
// repair budget the cap affords.
type Controller struct {
	opts Options

	seeded    bool
	lossEWMA  float64 // data-path loss rate, 0..1
	burstEWMA float64 // mean consecutive-loss run length in packets
}

// ewmaAlpha weighs each new ack sample; ~4 acks to move halfway.
const ewmaAlpha = 0.25

// redundancyGain scales the loss estimate into the target overhead: 2×
// leaves headroom for the loss estimate lagging the channel.
const redundancyGain = 2.0

// NewController returns a controller for the given (validated) options.
func NewController(opts Options) *Controller {
	return &Controller{opts: opts}
}

// OnAck folds one acknowledgment's receiver-side observations into the
// estimators: the loss rate in permille and the unacked (gap) block list,
// whose run lengths sample burstiness.
func (c *Controller) OnAck(lossPermille uint16, unacked []seqspace.Range) {
	if !c.opts.Adaptive {
		return
	}
	loss := float64(lossPermille) / 1000
	if loss > 1 {
		loss = 1
	}
	if !c.seeded {
		c.seeded = true
		c.lossEWMA = loss
	} else {
		c.lossEWMA += ewmaAlpha * (loss - c.lossEWMA)
	}
	for _, r := range unacked {
		run := float64(r.Hi - r.Lo)
		if run <= 0 {
			continue
		}
		if c.burstEWMA == 0 {
			c.burstEWMA = run
		} else {
			c.burstEWMA += ewmaAlpha * (run - c.burstEWMA)
		}
	}
}

// Reset clears the estimators (path migration: the new path's loss regime
// is unknown).
func (c *Controller) Reset() {
	c.seeded = false
	c.lossEWMA, c.burstEWMA = 0, 0
}

// Geometry returns the (k, r) the next group should use under the current
// estimates, always honoring r/k ≤ MaxOverhead.
func (c *Controller) Geometry() (k, r int) {
	o := c.opts
	rMax := int(float64(o.GroupLen) * o.MaxOverhead)
	if rMax < 1 {
		rMax = 1 // Validate guarantees GroupLen·MaxOverhead ≥ 1
	}
	if !o.Adaptive {
		if o.Scheme == SchemeXOR {
			return o.GroupLen, 1
		}
		return o.GroupLen, rMax
	}

	rhoMin := 1 / float64(o.GroupLen)
	rho := redundancyGain * c.lossEWMA
	if rho < rhoMin {
		rho = rhoMin
	}
	if rho > o.MaxOverhead {
		rho = o.MaxOverhead
	}

	if o.Scheme == SchemeXOR {
		k = clampInt(int(math.Round(1/rho)), ceilDiv(1, o.MaxOverhead), o.GroupLen)
		return k, 1
	}

	r = clampInt(int(math.Round(c.burstEWMA)), 1, rMax)
	k = clampInt(int(math.Round(float64(r)/rho)), ceilDiv(float64(r), o.MaxOverhead), o.GroupLen)
	if k < r {
		k = r // degenerate caps: never more repairs than data
	}
	return k, r
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ceilDiv returns ⌈num/den⌉ for positive floats as an int ≥ 1.
func ceilDiv(num, den float64) int {
	n := int(math.Ceil(num / den))
	if n < 1 {
		n = 1
	}
	return n
}
