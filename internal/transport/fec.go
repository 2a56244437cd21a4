package transport

import (
	"github.com/tacktp/tack/internal/fec"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/stream"
)

// maxFECQueue bounds the sealed-repair backlog awaiting transmission.
// Repairs are lowest-priority fill: when the pacer starves them past this
// depth the oldest are stale (their group's loss window has passed) and
// newly sealed ones push them out rather than queueing behind them.
const maxFECQueue = 32

// fecSender is the per-stream encoding state: one open group accumulator
// plus the adaptive-geometry controller fed from the ack stream.
type fecSender struct {
	enc  fec.Encoder
	ctrl *fec.Controller
}

// fecState returns (lazily creating) the encoding state for a
// FEC-protected stream.
func (s *Sender) fecState(id uint32) *fecSender {
	st := s.fecStreams[id]
	if st == nil {
		if s.fecStreams == nil {
			s.fecStreams = make(map[uint32]*fecSender)
		}
		st = &fecSender{ctrl: fec.NewController()}
		s.fecStreams[id] = st
	}
	return st
}

// fecCapture folds an outgoing stream-bearing DATA packet into its
// stream's open repair group, tagging the packet with the group id and
// symbol index the receiver's decoder keys on. A full group — or the
// stream's final frame — seals immediately so repairs chase their data
// onto the wire with no added latency.
func (s *Sender) fecCapture(now sim.Time, p *packet.Packet, fr *stream.Frame) {
	if !fr.FEC {
		return
	}
	st := s.fecState(fr.ID)
	if st.enc.Len() == 0 {
		k, r := st.ctrl.Geometry()
		s.fecGroupSeq++
		st.enc.Begin(s.fecGroupSeq, fec.SchemeRS, k, r)
		s.Stats.FECGroups++
		s.mFECGroups.Inc()
		s.mFECRatio.Set(float64(r) / float64(k))
	}
	p.HasFEC = true
	p.FECGroup = st.enc.Group()
	p.FECIndex = uint8(st.enc.Add(p))
	if st.enc.Full() || fr.FIN {
		s.fecSeal(now, st)
	}
}

// fecSeal closes the stream's open group and queues its repair packets.
func (s *Sender) fecSeal(now sim.Time, st *fecSender) {
	st.enc.Seal(now, s.cfg.ConnID, func(rp *packet.Packet) {
		if len(s.fecQueue) >= maxFECQueue {
			// Evict the oldest queued repair: it has been pacer-starved for
			// a full queue's worth of groups and its loss window is gone.
			copy(s.fecQueue, s.fecQueue[1:])
			s.fecQueue = s.fecQueue[:len(s.fecQueue)-1]
			s.Stats.FECQueueDrops++
			s.mFECQueueDrops.Inc()
		}
		s.fecQueue = append(s.fecQueue, rp)
	})
}

// fecIdleSeal closes every open group when the stream scheduler has run
// dry: a bursty source (one video frame per tick) would otherwise leave
// its tail group open until the next burst, delaying the repairs that
// protect exactly the packets most recently at risk.
func (s *Sender) fecIdleSeal(now sim.Time) {
	if len(s.fecStreams) == 0 {
		return
	}
	if _, ok := s.mux.NextFrameLen(1); ok {
		return // more data imminent; let the group fill
	}
	for _, st := range s.fecStreams {
		if st.enc.Len() > 0 {
			s.fecSeal(now, st)
		}
	}
}

// fecFlush transmits queued repair packets as lowest-priority fill: after
// retransmissions and new data, charged to the pacer but outside the
// congestion window (repairs are never tracked, acknowledged, or
// retransmitted, and they consume no data packet numbers — PKT.SEQ gaps
// must keep meaning data loss).
func (s *Sender) fecFlush(now sim.Time) {
	for len(s.fecQueue) > 0 {
		rp := s.fecQueue[0]
		n := len(rp.Payload)
		if !s.cfg.DisablePacing && !s.pacer.CanSend(now, n) {
			return
		}
		copy(s.fecQueue, s.fecQueue[1:])
		s.fecQueue = s.fecQueue[:len(s.fecQueue)-1]
		rp.SentAt = now
		s.pacer.OnSend(now, n)
		s.Stats.FECRepairsSent++
		s.Stats.FECRepairBytes += int64(n)
		s.mFECRepairs.Inc()
		s.mFECRepairBytes.Add(int64(n))
		s.tracer.FECRepairSent(now, s.cfg.ConnID, rp.FECGroup, int(rp.FECIndex),
			n, int(rp.FECGroupLen), float64(rp.FECRepairCount)/float64(rp.FECGroupLen))
		s.out(rp)
	}
}

// fecOnAck feeds every stream controller the acknowledgment's
// receiver-side loss observations (rate and gap run lengths).
func (s *Sender) fecOnAck(a *packet.AckInfo) {
	for _, st := range s.fecStreams {
		st.ctrl.OnAck(a.LossRatePermille, a.UnackedBlocks)
	}
}

// fecReset clears the adaptive estimators after a path migration: the new
// path's loss regime is unknown, and geometry sized to the old one would
// over- or under-protect until the EWMAs caught up.
func (s *Sender) fecReset() {
	for _, st := range s.fecStreams {
		st.ctrl.Reset()
	}
}

// --- Receiver side. ---

// onRepair feeds an arriving REPAIR packet to the group decoder and
// delivers anything it unlocks. Repairs carry no sequence or
// acknowledgment state; a malformed or hostile one degrades to a counter.
func (r *Receiver) onRepair(p *packet.Packet) {
	if r.fecDec == nil {
		return // no stream layer: nothing to recover into
	}
	r.Stats.FECRepairsReceived++
	r.mFECRepairsRecv.Inc()
	recovered := r.fecDec.AddRepair(p)
	r.fecAccount(p)
	for _, rp := range recovered {
		r.injectRecovered(rp)
	}
}

// fecOnData mirrors a FEC-tagged source packet into the decoder so later
// repairs solve over it, delivering any recovery it completes.
func (r *Receiver) fecOnData(p *packet.Packet) {
	if r.fecDec == nil || !p.HasFEC {
		return
	}
	recovered := r.fecDec.AddSource(p)
	r.fecAccount(p)
	for _, rp := range recovered {
		r.injectRecovered(rp)
	}
}

// fecAccount mirrors the decoder's monotonic counters into stats, metrics
// and traces (the decoder is transport-agnostic and only counts).
func (r *Receiver) fecAccount(p *packet.Packet) {
	d := r.fecDec
	if n := d.RepairsUsed - r.fecUsedSeen; n > 0 {
		r.fecUsedSeen = d.RepairsUsed
		r.Stats.FECRepairsUsed += int(n)
		r.mFECRepairsUsed.Add(int64(n))
	}
	if n := d.RepairsWasted - r.fecWastedSeen; n > 0 {
		r.fecWastedSeen = d.RepairsWasted
		r.Stats.FECRepairsWasted += int(n)
		r.mFECRepairsWasted.Add(int64(n))
		r.tracer.FECRepairWasted(r.loop.Now(), r.cfg.ConnID, p.FECGroup, len(p.Payload))
	}
	if n := d.Dropped - r.fecDroppedSeen; n > 0 {
		r.fecDroppedSeen = d.Dropped
		r.Stats.FECDropped += int(n)
		r.mFECDropped.Add(int64(n))
	}
}

// injectRecovered delivers a FEC-reconstructed DATA packet as if it had
// arrived on the wire (deliver's recovered arm): connection reassembly,
// stream demultiplex, and — critically — marking its packet number received
// so the block is acknowledged like delivered data. The sender then never
// sees a gap for it: no loss IACK, no RACK mark, no retransmission.
func (r *Receiver) injectRecovered(p *packet.Packet) {
	now := r.loop.Now()
	r.Stats.FECRecovered++
	r.Stats.FECRecoveredBytes += int64(len(p.Payload))
	r.mFECRecovered.Inc()
	r.mFECRecoveredBytes.Add(int64(len(p.Payload)))
	r.tracer.FECRecovered(now, r.cfg.ConnID, p.FECGroup, p.PktSeq, len(p.Payload), p.StreamID)
	r.deliver(now, p, true)
}
