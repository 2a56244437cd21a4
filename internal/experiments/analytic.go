package experiments

// The TACK paper's closed-form models: the ACK frequency equations
// (Eq. 1–5), the rich-information threshold and ΔQ (Eq. 6, Appendix A), and
// the Appendix B bounds (β lower bound via the minimum send window, L upper
// bound, pivot points of the frequency surface). These power the Figure 8 /
// Figure 17 reproductions and validate the runtime implementation against
// theory.

import (
	"math"

	"github.com/tacktp/tack/internal/ackpolicy"
	"github.com/tacktp/tack/internal/sim"
)

// freqByteCount returns f_b = bw/(L·MSS) in Hz (Eq. 1): the frequency of a
// byte-counting ACK policy at data throughput bwBps.
func freqByteCount(bwBps float64, l int) float64 {
	if l < 1 {
		l = 1
	}
	return bwBps / 8 / float64(l*ackpolicy.MSS)
}

// freqPeriodic returns f = 1/α in Hz (Eq. 2).
func freqPeriodic(alpha sim.Time) float64 {
	if alpha <= 0 {
		return math.Inf(1)
	}
	return 1 / alpha.Seconds()
}

// freqTACK returns f_tack = min(bw/(L·MSS), β/RTTmin) in Hz (Eq. 3).
func freqTACK(bwBps float64, l, beta int, rttMin sim.Time) float64 {
	fb := freqByteCount(bwBps, l)
	if rttMin <= 0 {
		return fb
	}
	fp := float64(beta) / rttMin.Seconds()
	return math.Min(fb, fp)
}

// freqPerPacket returns f_tcp = bw/MSS in Hz (Eq. 4): legacy TCP with
// TCP_QUICKACK.
func freqPerPacket(bwBps float64) float64 { return freqByteCount(bwBps, 1) }

// freqDelayed returns the delayed-ACK frequency (Eq. 5): per-packet below
// 2 MSS/γ of throughput, bw/(2·MSS) above it.
func freqDelayed(bwBps float64, gamma sim.Time) float64 {
	if gamma <= 0 {
		gamma = 40 * sim.Millisecond
	}
	pivot := 2 * float64(ackpolicy.MSS) * 8 / gamma.Seconds()
	if bwBps < pivot {
		return freqPerPacket(bwBps)
	}
	return freqByteCount(bwBps, 2)
}

// periodicRegime reports whether a flow with the given bdp (bytes) operates
// TACK in the periodic regime (bdp ≥ β·L·MSS) rather than byte-counting.
func periodicRegime(bdpBytes float64, beta, l int) bool {
	return bdpBytes >= float64(beta*l*ackpolicy.MSS)
}

// richThreshold returns the ACK-path loss rate ρ′ above which a TACK must
// carry more than Q unacked blocks (Eq. 6/9), clamped to [0,1].
func richThreshold(q int, rho, bdpBytes float64, beta, l int) float64 {
	if rho <= 0 {
		return 1
	}
	var th float64
	if periodicRegime(bdpBytes, beta, l) {
		th = float64(q) * ackpolicy.MSS / (rho * bdpBytes)
	} else {
		th = float64(q) / (rho * float64(l))
	}
	return math.Min(th, 1)
}

// deltaQ returns the additional unacked blocks a TACK should report above
// the rich threshold (Appendix A): ρ·ρ′·bdp/MSS − Q (large bdp) or
// ρ·ρ′·L − Q (small bdp), floored at zero.
func deltaQ(q int, rho, rhoPrime, bdpBytes float64, beta, l int) float64 {
	var need float64
	if periodicRegime(bdpBytes, beta, l) {
		need = rho * rhoPrime * bdpBytes / ackpolicy.MSS
	} else {
		need = rho * rhoPrime * float64(l)
	}
	return math.Max(0, need-float64(q))
}

// minSendWindow returns W_min = β/(β−1)·bdp (Appendix B.3, after [50]):
// the smallest send window sustaining full utilization with β ACKs per
// RTT. β must be ≥ 2 (β = 1 degenerates to stop-and-wait; see Appendix
// B.1) or the function panics.
func minSendWindow(bdpBytes float64, beta int) float64 {
	if beta < 2 {
		panic("experiments: minSendWindow requires beta >= 2")
	}
	return float64(beta) / float64(beta-1) * bdpBytes
}

// bufferRequirement returns the ideal bottleneck buffer requirement
// W_min − bdp: one bdp at β=2, 0.33·bdp at the default β=4 (§7).
func bufferRequirement(bdpBytes float64, beta int) float64 {
	return minSendWindow(bdpBytes, beta) - bdpBytes
}

// maxL returns the upper bound on the byte-counting parameter,
// L ≤ Q/(ρ·ρ′) (Appendix B.2, Eq. 10). Infinite (math.Inf) when either
// loss rate is zero.
func maxL(q int, rho, rhoPrime float64) float64 {
	if rho <= 0 || rhoPrime <= 0 {
		return math.Inf(1)
	}
	return float64(q) / (rho * rhoPrime)
}

// pivotBandwidth returns the throughput at which TACK switches from the
// byte-counting to the periodic regime for a given RTTmin:
// bw = β·L·MSS/RTTmin (in bit/s). Figure 17(a)'s pivot points.
func pivotBandwidth(beta, l int, rttMin sim.Time) float64 {
	if rttMin <= 0 {
		return math.Inf(1)
	}
	return float64(beta*l*ackpolicy.MSS) * 8 / rttMin.Seconds()
}

// pivotRTT returns the RTTmin at which TACK switches regimes for a given
// throughput: RTT = β·L·MSS/bw. Figure 17(b)'s pivot points.
func pivotRTT(beta, l int, bwBps float64) sim.Time {
	if bwBps <= 0 {
		return sim.Time(math.MaxInt64)
	}
	return sim.Time(float64(beta*l*ackpolicy.MSS) * 8 / bwBps * 1e9)
}

// reductionVsPerPacket returns the fraction of ACKs TACK eliminates
// relative to per-packet acking at the given operating point.
func reductionVsPerPacket(bwBps float64, l, beta int, rttMin sim.Time) float64 {
	fp := freqPerPacket(bwBps)
	if fp <= 0 {
		return 0
	}
	return 1 - freqTACK(bwBps, l, beta, rttMin)/fp
}

// iackLossFreqUpperBound returns the worst-case loss-event IACK frequency
// ρ·bw/MSS in Hz (§4.4): with typical small ρ the extra return-path load is
// negligible.
func iackLossFreqUpperBound(rho, bwBps float64) float64 {
	return rho * bwBps / 8 / ackpolicy.MSS
}
