package cc

import (
	"github.com/tacktp/tack/internal/rate"
	"github.com/tacktp/tack/internal/sim"
)

func init() {
	Register("bbr", func() Controller { return NewBBR() })
}

// BBR state machine phases.
type bbrState int

const (
	bbrStartup bbrState = iota
	bbrDrain
	bbrProbeBW
	bbrProbeRTT
)

// BBR gain constants (from the BBR v1 design).
const (
	bbrHighGain  = 2.885 // 2/ln(2): startup pacing gain
	bbrDrainGain = 1 / bbrHighGain
	bbrCwndGain  = 2.0
)

// bbrCycle is the ProbeBW pacing-gain cycle: probe up 1.25, drain 0.75,
// then cruise six intervals at 1.0.
var bbrCycle = []float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// BBR models bottleneck bandwidth and round-trip propagation delay
// (BBR v1): a windowed-max bandwidth filter and windowed-min RTT drive a
// paced rate of gain·BtlBw with a 2·BDP window cap.
//
// Because every input arrives through the Ack event, the same
// implementation serves both legacy mode (sender-computed delivery rate
// per ACK) and the TACK receiver-based mode (delivery rate computed at the
// receiver and synced inside TACKs, paper §5.3). Since one pacing-rate
// update per TACK interval suffices — BBR's own gain-cycle steps are RTT
// granular — BBR tolerates the excessively delayed ACK clock.
//
// The window knows that clock (Ack.AckInterval). Nothing in flight is
// released before the next acknowledgment, so the window must hold what
// the flow delivers over RTTmin plus the ack interval. The cwnd gain's
// headroom over the BDP already absorbs a hold of one RTTmin (as in Linux,
// where it covers delayed ACKs), so only the interval's excess over RTTmin
// is provisioned, at the same gain:
//
//	cwnd = gain·bw·RTTmin + max(gain·ackRate·max(0, interval − RTTmin), extraAcked)
//
// The excess is zero wherever the interval is RTTmin/β. It appears where
// the α floor (ackpolicy.MinInterval) or the byte-counting bound holds the
// interval above RTTmin: sub-millisecond paths and slow links. It is
// provisioned at ackRate, the rate the acknowledgments report delivered,
// not at bw: on a host-bound path the receiver drains its own input
// backlog faster than it sustains, which inflates the max-filtered bw, and
// a window that grew with bw would feed that backlog. The aggregation
// allowance (extraAcked) sees one interval's delivery arrive in one
// acknowledgment too, so the window takes the larger of the two rather
// than their sum: the interval is counted once, and a flow too short to
// have an ackRate sample keeps the allowance it had.
type BBR struct {
	bwFilt *rate.Filter // bottleneck bandwidth, bits/s
	minRTT sim.Time
	srtt   sim.Time

	state      bbrState
	cycleIdx   int
	cycleStamp sim.Time

	// Startup plateau detection (evaluated once per round trip).
	fullBW      float64
	fullBWCount int
	lastPlateau sim.Time

	// ProbeRTT bookkeeping.
	probeRTTDone  sim.Time
	minRTTStamp   sim.Time
	priorCwnd     int
	inflightLatch int

	pacingGain float64
	cwnd       int
	lastNow    sim.Time

	// ACK-aggregation compensation (the paper's §6.1 notes both stacks
	// integrate BBR's aggregation improvements; links with A-MPDU deliver
	// ACK credit in bursts, so cwnd must provision bdp + max extra acked,
	// mirroring Linux bbr_update_ack_aggregation).
	extraFilt     *rate.Filter
	ackEpochStart sim.Time
	ackEpochAcked int64
	haveAckEpoch  bool

	// The acknowledgment clock: the feedback interval the sender asked
	// for, and ackRate (bytes/s), the delivery the acknowledgments report,
	// measured over spans of at least ackSpanIntervals intervals so that
	// one acknowledgment of a drained backlog is averaged with the
	// intervals that built it.
	ackInterval sim.Time
	ackRate     float64
	spanStart   sim.Time
	spanBytes   int64
}

// ackSpanIntervals is how many feedback intervals one ackRate sample spans.
const ackSpanIntervals = 4

// NewBBR constructs a BBR controller.
func NewBBR() *BBR {
	return &BBR{
		bwFilt:     rate.NewMaxFilter(10 * sim.Second),
		extraFilt:  rate.NewMaxFilter(10 * sim.Second),
		state:      bbrStartup,
		pacingGain: bbrHighGain,
		cwnd:       InitialWindow,
	}
}

// Name implements Controller.
func (b *BBR) Name() string { return "bbr" }

// bdpBytes returns gain·BDP in bytes, with a floor of 4 MSS.
func (b *BBR) bdpBytes(gain float64) int {
	bw := b.bwFilt.Get(b.lastNow)
	if bw <= 0 || b.minRTT <= 0 {
		return InitialWindow
	}
	bdp := bw / 8 * b.minRTT.Seconds() * gain
	if bdp < 4*MSS {
		bdp = 4 * MSS
	}
	return int(bdp)
}

// OnAck implements Controller.
func (b *BBR) OnAck(a Ack) {
	now := a.Now
	if now > b.lastNow {
		b.lastNow = now
	}
	if a.SRTT > 0 {
		b.srtt = a.SRTT
	}
	if a.RTT > 0 && (b.minRTT == 0 || a.RTT <= b.minRTT || now-b.minRTTStamp > 10*sim.Second) {
		b.minRTT = a.RTT
		b.minRTTStamp = now
	}
	if a.MinRTT > 0 && (b.minRTT == 0 || a.MinRTT < b.minRTT) {
		b.minRTT = a.MinRTT
		b.minRTTStamp = now
	}
	if a.DeliveryRate > 0 && !a.AppLimited {
		b.bwFilt.Update(now, a.DeliveryRate)
	}
	b.updateAckClock(now, a)
	b.updateAckAggregation(now, a)
	// The bottleneck-bandwidth filter spans ~10 round trips (BBR v1), so
	// transient startup spikes age out promptly on long-RTT paths.
	if b.minRTT > 0 {
		w := 10 * b.minRTT
		if w < 2*sim.Second {
			w = 2 * sim.Second
		}
		if w > 10*sim.Second {
			w = 10 * sim.Second
		}
		b.bwFilt.SetWindow(w)
	}

	switch b.state {
	case bbrStartup:
		// Evaluate the plateau once per round trip: per-ack evaluation
		// would see three unchanged samples within one RTT and exit
		// startup long before the pipe fills.
		round := b.minRTT
		if round <= 0 {
			round = 100 * sim.Millisecond
		}
		if now-b.lastPlateau >= round {
			b.lastPlateau = now
			b.checkFullPipe()
		}
		if b.state == bbrDrain {
			b.pacingGain = bbrDrainGain
		}
	case bbrDrain:
		if a.Inflight <= b.bdpBytes(1.0) {
			b.enterProbeBW(now)
		}
	case bbrProbeBW:
		b.advanceCycle(now, a.Inflight)
	case bbrProbeRTT:
		if now >= b.probeRTTDone {
			b.minRTTStamp = now
			b.enterProbeBW(now)
		}
	}
	// Periodically dip to measure RTT when the min estimate is stale.
	if b.state != bbrProbeRTT && b.minRTT > 0 && now-b.minRTTStamp > 10*sim.Second {
		b.enterProbeRTT(now)
	}
	b.updateCwnd()
}

func (b *BBR) checkFullPipe() {
	bw := b.bwFilt.Get(b.lastNow)
	if bw > b.fullBW*1.25 {
		b.fullBW = bw
		b.fullBWCount = 0
		return
	}
	b.fullBWCount++
	if b.fullBWCount >= 3 {
		b.state = bbrDrain
	}
}

func (b *BBR) enterProbeBW(now sim.Time) {
	b.state = bbrProbeBW
	b.cycleIdx = 0
	b.cycleStamp = now
	b.pacingGain = bbrCycle[0]
}

func (b *BBR) enterProbeRTT(now sim.Time) {
	b.state = bbrProbeRTT
	b.priorCwnd = b.cwnd
	b.probeRTTDone = now + 200*sim.Millisecond
	b.pacingGain = 1.0
}

func (b *BBR) advanceCycle(now sim.Time, inflight int) {
	interval := b.minRTT
	if interval <= 0 {
		interval = 100 * sim.Millisecond
	}
	advance := now-b.cycleStamp > interval
	// Leave the 0.75 drain phase early once inflight is at the target.
	if bbrCycle[b.cycleIdx] == 0.75 && inflight <= b.bdpBytes(1.0) {
		advance = true
	}
	if advance {
		b.cycleIdx = (b.cycleIdx + 1) % len(bbrCycle)
		b.cycleStamp = now
		b.pacingGain = bbrCycle[b.cycleIdx]
	}
}

// updateAckClock records the feedback interval and samples ackRate. An
// app-limited acknowledgment restarts the span: it says nothing about the
// rate the path sustains.
func (b *BBR) updateAckClock(now sim.Time, a Ack) {
	b.ackInterval = a.AckInterval
	if a.AckInterval <= 0 {
		return
	}
	if a.AppLimited || b.spanStart == 0 {
		b.spanStart, b.spanBytes = now, 0
		return
	}
	b.spanBytes += int64(a.Bytes)
	if span := now - b.spanStart; span >= ackSpanIntervals*a.AckInterval {
		b.ackRate = float64(b.spanBytes) / span.Seconds()
		b.spanStart, b.spanBytes = now, 0
	}
}

// updateAckAggregation measures how far ACK credit runs ahead of the
// bandwidth estimate within an aggregation epoch; the windowed maximum is
// provisioned on top of the BDP-based window.
func (b *BBR) updateAckAggregation(now sim.Time, a Ack) {
	if a.Bytes <= 0 || a.AppLimited {
		return
	}
	bw := b.bwFilt.Get(b.lastNow)
	if bw <= 0 {
		return
	}
	if !b.haveAckEpoch {
		b.haveAckEpoch = true
		b.ackEpochStart = now
		b.ackEpochAcked = 0
	}
	expected := bw / 8 * (now - b.ackEpochStart).Seconds()
	b.ackEpochAcked += int64(a.Bytes)
	extra := float64(b.ackEpochAcked) - expected
	if extra < 0 {
		// Credit fell behind the estimate: start a fresh epoch.
		b.ackEpochStart = now
		b.ackEpochAcked = int64(a.Bytes)
		extra = float64(a.Bytes)
	}
	// Cap the compensation at one initial window per epoch step to keep a
	// single burst from inflating the window unboundedly.
	if max := float64(64 * MSS); extra > max {
		extra = max
	}
	b.extraFilt.Update(now, extra)
}

// extraAcked returns the aggregation allowance in bytes.
func (b *BBR) extraAcked() int { return int(b.extraFilt.Get(b.lastNow)) }

// target is the window for a cwnd gain (see the type comment).
func (b *BBR) target(gain float64) int {
	interval := 0
	if excess := b.ackInterval - b.minRTT; excess > 0 {
		interval = int(gain * b.ackRate * excess.Seconds())
	}
	return b.bdpBytes(gain) + max(interval, b.extraAcked())
}

func (b *BBR) updateCwnd() {
	switch b.state {
	case bbrProbeRTT:
		b.cwnd = 4 * MSS
	case bbrStartup:
		if target := b.target(bbrHighGain); target > b.cwnd {
			b.cwnd = target
		}
	default:
		b.cwnd = b.target(bbrCwndGain)
	}
	if b.state != bbrProbeRTT && b.priorCwnd > 0 && b.cwnd < b.priorCwnd && b.state == bbrProbeBW {
		// Restore window promptly after ProbeRTT.
		if b.bdpBytes(bbrCwndGain) >= b.priorCwnd {
			b.priorCwnd = 0
		}
	}
	if b.cwnd > maxWindow {
		b.cwnd = maxWindow
	}
}

// OnLoss implements Controller. BBR v1 reacts to timeouts only (loss is
// not a primary congestion signal).
func (b *BBR) OnLoss(l Loss) {
	if l.Timeout {
		b.cwnd = 4 * MSS
	}
}

// CWND implements Controller.
func (b *BBR) CWND() int { return b.cwnd }

// PacingRate implements Controller.
func (b *BBR) PacingRate() float64 {
	bw := b.bwFilt.Get(b.lastNow)
	if bw <= 0 {
		// Pre-measurement: pace the initial window over a guessed RTT.
		return pacingFromWindow(b.cwnd, b.srtt)
	}
	return bw * b.pacingGain
}

// State exposes the phase name for diagnostics and tests.
func (b *BBR) State() string {
	switch b.state {
	case bbrStartup:
		return "startup"
	case bbrDrain:
		return "drain"
	case bbrProbeBW:
		return "probebw"
	case bbrProbeRTT:
		return "probertt"
	}
	return "?"
}

// BtlBw returns the filtered bottleneck bandwidth estimate in bits/s.
func (b *BBR) BtlBw() float64 { return b.bwFilt.Get(b.lastNow) }
