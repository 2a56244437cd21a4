package transport

// The legacy-TCP baseline the paper's evaluation compares TACK against, as
// the second implementation of the two ack-scheme seams (senderScheme,
// receiverScheme). It holds only what an experiment runs: byte-SACK release,
// an uncorrected timestamp echo, a sender-computed delivery rate and RACK
// for loss detection. Nothing on a TACK connection's path reaches this file.

import (
	"github.com/tacktp/tack/internal/buffer"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/seqspace"
	"github.com/tacktp/tack/internal/sim"
)

// legacySACKBlocks bounds the SACK blocks a legacy ACK carries, like a
// timestamp-bearing TCP SACK option.
const legacySACKBlocks = 3

// legacySender is the sender half: acknowledgments carry a cumulative byte
// point, byte-range SACK blocks and one timestamp echo.
type legacySender struct {
	s          *Sender
	sacked     seqspace.RangeSet // byte ranges selectively acknowledged
	recoverSeq uint64            // the loss episode ends when CumAck passes it

	// Delivery-rate sampling window.
	lastRateAt    sim.Time
	lastRateBytes int64
}

// A legacy receiver acknowledges on its own policy's schedule and the
// estimator already contains that delay: no separate hold budget, and no
// interval for the controller to provision. Its acknowledgments name bytes,
// never packet numbers.
func (l *legacySender) rtoHold(sim.Time) sim.Time              { return 0 }
func (l *legacySender) rackHold() sim.Time                     { return 0 }
func (l *legacySender) ackInterval(float64, sim.Time) sim.Time { return 0 }
func (l *legacySender) acksPktNumbers() bool                   { return false }

func (l *legacySender) absorb(now sim.Time, p *packet.Packet) ackSample {
	a, s := p.Ack, l.s
	for _, r := range a.AckedBlocks {
		l.sacked.AddRange(r)
	}
	l.sacked.RemoveBelow(a.CumAck)
	l.releaseSacked()
	var got ackSample
	if a.EchoDeparture > 0 {
		// Timestamp echo: no ACK-delay correction.
		s.legacyRTT.Update(now, now-a.EchoDeparture)
		got.rtt = now - a.EchoDeparture
	}
	got.rackRTT = got.rtt
	got.deliveryRate = l.deliveryRate(now)
	return got
}

// releaseSacked drops fully sacked segments from the send buffer.
func (l *legacySender) releaseSacked() {
	maxS, ok := l.sacked.Max()
	if !ok {
		return
	}
	var done []seqspace.Range
	l.s.buf.Walk(func(seg *buffer.Segment) bool {
		if seg.Seq > maxS {
			return false
		}
		if l.sacked.ContainsRange(seg.Seq, seg.End()) {
			done = append(done, seqspace.Range{Lo: seg.PktSeq, Hi: seg.PktSeq + 1})
		}
		return true
	})
	if len(done) > 0 {
		l.s.buf.AckPktRanges(done)
	}
}

// deliveryRate samples released (cumulatively or selectively acknowledged)
// bytes over windows of at least half an RTT. Selective releases spread
// hole-repair credit over time, and the floor averages out ack bursts, so
// the samples cannot sustain an overestimate of the true drain rate.
func (l *legacySender) deliveryRate(now sim.Time) float64 {
	released := l.s.buf.ReleasedBytes()
	if l.lastRateAt == 0 {
		l.lastRateAt, l.lastRateBytes = now, released
		return 0
	}
	elapsed := now - l.lastRateAt
	if elapsed < max(l.s.est.Smoothed()/2, 20*sim.Millisecond) {
		return 0
	}
	bytes := released - l.lastRateBytes
	l.lastRateAt, l.lastRateBytes = now, released
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) * 8 / elapsed.Seconds()
}

func (l *legacySender) lossEpisodeBegan() { l.recoverSeq = l.s.nextSeq }

func (l *legacySender) afterAck(a *packet.AckInfo) {
	if l.s.inRecovery && a.CumAck >= l.recoverSeq {
		l.s.inRecovery = false
	}
}

// legacyReceiver is the receiver half: no packet-number loss tracking, no
// window IACKs, no Eq. 3 target — only what goes on the ACK.
type legacyReceiver struct{ r *Receiver }

func (l legacyReceiver) onData(sim.Time, *packet.Packet) {}
func (l legacyReceiver) windowMoved()                    {}
func (l legacyReceiver) targetHz() float64               { return 0 }

// fill adds SACK byte-range blocks above the cumulative point (skipped
// entirely in the common in-order case) and the timestamp echo of the first
// packet this acknowledgment covers.
func (l legacyReceiver) fill(_ sim.Time, a *packet.AckInfo, _ packet.Type, _ packet.IACKKind, _ []seqspace.Range) {
	r := l.r
	if r.buf.HasHoles() {
		next := r.buf.NextExpected()
		var sack []seqspace.Range
		for _, rr := range r.buf.RangesView() {
			if rr.Lo >= next {
				sack = append(sack, rr)
			}
		}
		if len(sack) > legacySACKBlocks {
			// Prefer the newest (highest) blocks, like TCP SACK.
			sack = sack[len(sack)-legacySACKBlocks:]
		}
		a.AckedBlocks = sack
	}
	if r.firstEchoValid {
		a.EchoDeparture = r.firstEchoDeparture
		r.firstEchoValid = false
	}
}
