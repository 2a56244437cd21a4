package transport

import (
	"fmt"

	"github.com/tacktp/tack/internal/ackpolicy"
	"github.com/tacktp/tack/internal/buffer"
	"github.com/tacktp/tack/internal/cc"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/seqspace"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/stream"
	"github.com/tacktp/tack/internal/telemetry"
)

// Sender is the transmitting half of a connection.
type Sender struct {
	loop *sim.Loop
	cfg  Config
	out  Output

	ctrl  cc.Controller
	pacer *pacer
	buf   *buffer.SendBuffer

	// mux is the stream multiplexer (nil on single-bytestream
	// connections). When set, new data comes from the scheduler as STREAM
	// frames and retransmissions re-materialize payloads from retained
	// stream data.
	mux *stream.SendMux

	// Stream state.
	nextSeq     uint64 // next byte offset to transmit
	nextPktSeq  uint64 // next packet number
	appAvail    int64  // app-paced mode: bytes made available so far
	cumAcked    uint64 // highest cumulatively acked byte
	finSent     bool
	done        bool
	established bool

	// Peer flow control.
	awnd      uint64
	awndKnown bool

	// scheme is the acknowledgment scheme this half speaks — TACK, or the
	// legacy-TCP baseline of legacy.go — picked once in NewSender.
	scheme senderScheme

	// Timing. The corrected estimator and the uncorrected sampler both run
	// on a TACK flow (one flow yields both series of Figure 6(a)); est is
	// the one that drives control.
	timing    *estimate
	legacyRTT *estimate
	est       *estimate
	synSentAt sim.Time

	// Loss bookkeeping.
	recoverPkt      uint64 // loss episode ends when acks pass this PKT.SEQ
	inRecovery      bool
	ackLoss         *ackLossEstimator
	largestAckedPkt uint64

	// lastDeliveredBytes is the send buffer's released-bytes counter as of
	// the previous acknowledgment (the controller is fed the difference).
	lastDeliveredBytes int64

	// RTTmin / oldest-outstanding sync.
	syncedRTTMin     sim.Time
	lastSyncAt       sim.Time
	advertisedOldest uint64
	lastOldestSync   sim.Time

	// RACK-TLP loss detection (nil when the dup-thresh baseline is
	// selected; see Config.Detector).
	rack         *rackState
	lastDataSend sim.Time // departure time of the most recent DATA emission

	// Forward error correction (see fec.go): per-stream group encoders,
	// the connection-level group counter, and the sealed-repair queue
	// flushed as lowest-priority fill.
	fecStreams  map[uint32]*fecSender
	fecGroupSeq uint32
	fecQueue    []*packet.Packet

	// Timers.
	sendTimer  *sim.Timer
	rtoTimer   *sim.Timer
	rackTimer  *sim.Timer // pending RACK reorder-window deadline re-check
	tlpTimer   *sim.Timer // tail loss probe
	rtoBackoff int

	// Stats and payload template.
	Stats   SenderStats
	payload []byte

	// Telemetry (nil-safe no-ops when un-instrumented).
	tracer          *telemetry.Tracer
	mDataPackets    *telemetry.Counter
	mRetransmits    *telemetry.Counter
	mTimeouts       *telemetry.Counter
	mAcksReceived   *telemetry.Counter
	mAckBytes       *telemetry.Counter
	mLossEpisodes   *telemetry.Counter
	mSYNRetrans     *telemetry.Counter
	mRTT            *telemetry.Histogram
	mRackMarked     *telemetry.Counter
	mRackReorder    *telemetry.Counter
	mReoWnd         *telemetry.Histogram
	mTLPProbes      *telemetry.Counter
	mFECGroups      *telemetry.Counter
	mFECRepairs     *telemetry.Counter
	mFECRepairBytes *telemetry.Counter
	mFECQueueDrops  *telemetry.Counter
	mFECRatio       *telemetry.Gauge
	mCWND           *telemetry.Gauge
	mPacing         *telemetry.Gauge
	mCCLosses       *telemetry.Counter
	// ccCWND and ccPacing are the controller outputs last published.
	ccCWND   int
	ccPacing float64

	// OnDone fires once when the transfer completes (all bytes acked).
	OnDone func()
}

// NewSender builds the sending half. Packets are emitted through out.
func NewSender(loop *sim.Loop, cfg Config, out Output) (*Sender, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	ctrl, err := cc.New(cfg.CC)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	s := &Sender{
		loop:      loop,
		cfg:       cfg,
		out:       out,
		ctrl:      ctrl,
		pacer:     newPacer(ctrl.PacingRate(), 10*DefaultPayload),
		buf:       buffer.NewSendBuffer(),
		timing:    newEstimate(),
		legacyRTT: newEstimate(),
		ackLoss:   newAckLossEstimator(),
		payload:   make([]byte, DefaultPayload),

		tracer:        cfg.Tracer,
		mDataPackets:  cfg.Metrics.Counter("snd.data_packets"),
		mRetransmits:  cfg.Metrics.Counter("snd.retransmits"),
		mTimeouts:     cfg.Metrics.Counter("snd.timeouts"),
		mAcksReceived: cfg.Metrics.Counter("snd.acks_received"),
		mAckBytes:     cfg.Metrics.Counter("snd.ack_bytes_received"),
		mLossEpisodes: cfg.Metrics.Counter("snd.loss_episodes"),
		mSYNRetrans:   cfg.Metrics.Counter("snd.syn_retransmits"),
		mRTT:          cfg.Metrics.Histogram("snd.rtt_s"),
		mRackMarked:   cfg.Metrics.Counter("snd.rack.marked_lost"),
		mRackReorder:  cfg.Metrics.Counter("snd.rack.reorder_events"),
		mReoWnd:       cfg.Metrics.Histogram("snd.rack.reo_wnd_s"),
		mTLPProbes:    cfg.Metrics.Counter("snd.tlp.probes"),

		mFECGroups:      cfg.Metrics.Counter("fec.groups_sent"),
		mFECRepairs:     cfg.Metrics.Counter("fec.repairs_sent"),
		mFECRepairBytes: cfg.Metrics.Counter("fec.repair_bytes_sent"),
		mFECQueueDrops:  cfg.Metrics.Counter("fec.queue_drops"),
		mFECRatio:       cfg.Metrics.Gauge("fec.redundancy_ratio"),
		mCWND:           cfg.Metrics.Gauge("cc.cwnd_bytes"),
		mPacing:         cfg.Metrics.Gauge("cc.pacing_bps"),
		mCCLosses:       cfg.Metrics.Counter("cc.loss_events"),
	}
	if cfg.Mode == ModeLegacy {
		s.scheme, s.est = &legacySender{s: s}, s.legacyRTT
	} else {
		s.scheme, s.est = tackSender{s}, s.timing
		if cfg.LegacyTiming {
			s.est = s.legacyRTT
		}
	}
	if cfg.Detector == DetectorRACK {
		s.rack = newRackState()
	}
	s.sendTimer = sim.NewTimer(loop, s.trySend)
	s.rtoTimer = sim.NewTimer(loop, s.onRTO)
	s.rackTimer = sim.NewTimer(loop, s.onRackTimer)
	s.tlpTimer = sim.NewTimer(loop, s.onTLP)
	if cfg.Streams != nil {
		s.mux = stream.NewSendMux(*cfg.Streams, stream.SendDeps{
			ConnID:  cfg.ConnID,
			Tracer:  cfg.Tracer,
			Metrics: cfg.Metrics,
		})
		// Default kick: schedule a send attempt through the loop instead of
		// calling trySend directly — the kick fires under the mux lock, which
		// trySend re-acquires. Owners that drive the loop from a dedicated
		// goroutine (the endpoint) must install their own cross-goroutine
		// kick via Streams().SetKick.
		s.mux.SetKick(s.KickStreams)
		s.buf.OnRelease = func(seg *buffer.Segment) {
			if !seg.HasStream {
				return
			}
			n := seg.Len
			if seg.StreamFIN {
				n-- // the phantom byte is not stream data
			}
			s.mux.OnFrameAcked(s.loop.Now(), seg.StreamID, seg.StreamOff, n, seg.StreamFIN)
		}
	}
	return s, nil
}

// Streams returns the stream multiplexer, or nil when the connection is a
// single bytestream.
func (s *Sender) Streams() *stream.SendMux { return s.mux }

// KickStreams schedules an immediate send attempt without re-entering the
// stream mux: safe to call from the mux kick callback, which runs with the
// mux lock held. Loop-goroutine only (like every timer operation).
func (s *Sender) KickStreams() { s.sendTimer.Reset(s.loop.Now()) }

// Start initiates the handshake. The SYN is re-sent on HandshakeBackoff
// until a SYNACK arrives or the owner stops the sender: the deadline that
// ends a handshake is the owner's.
func (s *Sender) Start() {
	s.synSentAt = s.loop.Now()
	s.out(&packet.Packet{Type: packet.TypeSYN, ConnID: s.cfg.ConnID, SentAt: s.loop.Now()})
	s.rtoTimer.ResetAfter(s.cfg.HandshakeBackoff(0))
}

// Stop disarms the sender's timers, so that a loop shared with other
// connections holds nothing of one its owner has removed.
func (s *Sender) Stop() {
	s.sendTimer.Stop()
	s.rtoTimer.Stop()
	s.rackTimer.Stop()
	s.tlpTimer.Stop()
}

// Done reports whether the configured transfer completed.
func (s *Sender) Done() bool { return s.done }

// Established reports whether the handshake completed.
func (s *Sender) Established() bool { return s.established }

// Controller exposes the congestion controller (diagnostics).
func (s *Sender) Controller() cc.Controller { return s.ctrl }

// RTTMin returns the sender's current minimum-RTT estimate.
func (s *Sender) RTTMin() (sim.Time, bool) {
	return s.est.Min(s.loop.Now())
}

// SRTT returns the smoothed RTT estimate.
func (s *Sender) SRTT() sim.Time { return s.est.Smoothed() }

// srttOrGuess is SRTT with a 100 ms stand-in before the first sample.
func (s *Sender) srttOrGuess() sim.Time {
	if srtt := s.est.Smoothed(); srtt > 0 {
		return srtt
	}
	return 100 * sim.Millisecond
}

// SampledRTTMin returns the legacy (uncorrected) estimator's minimum — the
// "RTT sampling" series of paper Figure 6(a).
func (s *Sender) SampledRTTMin() (sim.Time, bool) {
	return s.legacyRTT.Min(s.loop.Now())
}

// AdvancedRTTMin returns the TACK corrected estimator's minimum — the
// "advanced" series of paper Figure 6(a).
func (s *Sender) AdvancedRTTMin() (sim.Time, bool) {
	if s.timing.Samples() == 0 {
		return 0, false
	}
	return s.timing.Min(s.loop.Now())
}

// rtoAfter returns the data-path retransmission timeout after backoff
// doublings: the estimator's RTO plus the scheme's budget for the
// receiver's acknowledgment hold, doubled, and only then clamped — MaxRTO
// bounds the timeout that is armed, like HandshakeBackoff's.
func (s *Sender) rtoAfter(backoff int) sim.Time {
	rto := s.est.RTO(s.cfg.MinRTO, s.cfg.MaxRTO, sim.Second) + s.scheme.rtoHold(s.loop.Now())
	return min(rto<<backoff, s.cfg.MaxRTO)
}

func (s *Sender) rto() sim.Time { return s.rtoAfter(s.rtoBackoff) }

// BaseRTO returns the current retransmission timeout before exponential
// backoff — the stable per-connection timescale the endpoint's stall
// detector multiplies (backoff would make an N×RTO threshold chase its
// own tail during the very stalls it is meant to catch).
func (s *Sender) BaseRTO() sim.Time { return s.rtoAfter(0) }

// Inflight returns unacknowledged payload bytes.
func (s *Sender) Inflight() int { return s.buf.Bytes() }

// StreamBacklog reports whether un-transmitted application bytes remain
// (stream frames queued, app-paced bytes pending, or a bounded transfer
// not yet fully handed to the network).
func (s *Sender) StreamBacklog() bool {
	if s.mux != nil {
		_, ok := s.mux.NextFrameLen(1)
		return ok
	}
	if s.cfg.AppPaced {
		return int64(s.nextSeq) < s.appAvail
	}
	if s.cfg.TransferBytes <= 0 {
		return true // unbounded source
	}
	return int64(s.nextSeq) < s.cfg.TransferBytes
}

// AddBytes makes n more application bytes available to an app-paced sender
// (e.g. one encoded video frame) and kicks transmission.
func (s *Sender) AddBytes(n int64) {
	if !s.cfg.AppPaced || n <= 0 {
		return
	}
	s.appAvail += n
	s.trySend()
}

// AcksUnsent reports whether a acknowledges bytes or a packet number this
// sender never sent — a misbehaving receiver, whose feedback the owner
// drops before OnPacket sees it. Only DATA consumes packet numbers, so an
// honest LargestPktSeq is below the next one (0 is also the wire's "none
// yet"), and packet.Sane bounds CumPktSeq and ReportedThrough by it. The
// blocks, which Sane put in order, are bounded here by what was sent:
// packet numbers, or SACK byte ranges in legacy mode.
func (s *Sender) AcksUnsent(a *packet.AckInfo) bool {
	if a.CumAck > s.nextSeq || (a.LargestPktSeq != 0 && a.LargestPktSeq >= s.nextPktSeq) {
		return true
	}
	sent := s.nextPktSeq
	if s.cfg.Mode == ModeLegacy {
		sent = s.nextSeq
	}
	for _, blocks := range [2][]seqspace.Range{a.AckedBlocks, a.UnackedBlocks} {
		if len(blocks) > 0 && blocks[len(blocks)-1].Hi > sent {
			return true
		}
	}
	return false
}

// WindowFree returns the byte budget currently available for new data
// (cwnd and peer-advertised window minus flight); ≤ 0 means the sender
// is window-blocked.
func (s *Sender) WindowFree() int {
	w := s.ctrl.CWND() - s.Inflight()
	if s.awndKnown {
		if peer := int64(s.awnd) - int64(s.Inflight()); int64(w) > peer {
			w = int(peer)
		}
	}
	return w
}

// CWND returns the congestion controller's current window in bytes.
func (s *Sender) CWND() int { return s.ctrl.CWND() }

// PeerWindow returns the peer's last advertised receive window and
// whether one has been seen.
func (s *Sender) PeerWindow() (uint64, bool) { return s.awnd, s.awndKnown }

// trySend transmits retransmissions first, then new data, subject to the
// congestion window, the peer window, and pacing.
func (s *Sender) trySend() {
	if !s.established || s.done {
		return
	}
	now := s.loop.Now()
	srtt := s.srttOrGuess()
	// 1. Pending retransmissions (loss-marked segments), one pass in
	// stream order. Segments still in their once-per-RTT cooldown keep
	// their mark and are retried when eligible.
	paceBlocked := false
	s.buf.ForEachEligibleRetransmit(now, srtt, func(seg *buffer.Segment) bool {
		if !s.cfg.DisablePacing && !s.pacer.CanSend(now, seg.Len) {
			paceBlocked = true
			return false
		}
		s.retransmit(now, seg)
		return true
	})
	// 2. New data.
	if !paceBlocked {
		for budgetGuard := 0; budgetGuard < 4096; budgetGuard++ {
			next := s.nextChunk()
			if next <= 0 || s.WindowFree() < next {
				break
			}
			if !s.cfg.DisablePacing && !s.pacer.CanSend(now, next) {
				break
			}
			s.sendNewSegment(now, next)
		}
	}
	// 3. FEC repairs: seal tail groups of momentarily-dry streams, then
	// flush the repair queue as lowest-priority fill (pacer-charged,
	// cwnd-exempt) so redundancy never displaces fresh data.
	if s.mux != nil && len(s.fecStreams) > 0 {
		s.fecIdleSeal(now)
		s.fecFlush(now)
	}
	s.armSendTimer()
	s.armRTO()
	s.armTLP()
}

// nextChunk returns the size of the next new-data segment to send, or 0
// when no stream bytes are available. On stream-multiplexed connections it
// is the connection-sequence-space footprint of the scheduler's next frame
// (including the FIN phantom byte), so window and pacing gates see the
// exact cost NextFrame will commit.
func (s *Sender) nextChunk() int {
	if s.mux != nil {
		n, ok := s.mux.NextFrameLen(DefaultPayload)
		if !ok {
			return 0
		}
		return n
	}
	if !s.StreamBacklog() {
		return 0
	}
	n := DefaultPayload
	if s.cfg.TransferBytes > 0 {
		if rem := s.cfg.TransferBytes - int64(s.nextSeq); int64(n) > rem {
			n = int(rem)
		}
	}
	if s.cfg.AppPaced {
		if rem := s.appAvail - int64(s.nextSeq); int64(n) > rem {
			n = int(rem)
		}
	}
	return n
}

// sendNewSegment transmits the next n bytes of new data (n is what
// nextChunk just returned): the flat bytestream's next chunk, or — on
// stream-multiplexed connections — the scheduler's next frame, whose
// connection-sequence footprint (payload plus FIN phantom byte) advances
// nextSeq so the acknowledgment machinery below the stream layer is
// untouched.
func (s *Sender) sendNewSegment(now sim.Time, n int) {
	seg := buffer.Segment{Seq: s.nextSeq, Len: n, PktSeq: s.nextPktSeq, SentAt: now}
	var p *packet.Packet
	if s.mux != nil {
		fr, ok := s.mux.NextFrame(now, DefaultPayload)
		if !ok {
			return
		}
		seg.Len = fr.WireLen()
		seg.HasStream, seg.StreamID, seg.StreamOff, seg.StreamFIN = true, fr.ID, fr.Off, fr.FIN
		p = s.dataPacket(&seg, fr.Data, false)
		// Fold the packet into its stream's repair group (no-op for
		// unprotected streams); the tag must be on the wire packet so the
		// receiver's decoder can key it.
		s.fecCapture(now, p, &fr)
	} else {
		if s.cfg.TransferBytes > 0 && int64(s.nextSeq)+int64(n) >= s.cfg.TransferBytes {
			seg.FIN = true
			s.finSent = true
		}
		p = s.dataPacket(&seg, s.payload[:n], false)
	}
	s.buf.Insert(seg)
	s.nextSeq += uint64(seg.Len)
	s.nextPktSeq++
	s.emitData(p, seg.Len)
}

func (s *Sender) retransmit(now sim.Time, seg *buffer.Segment) {
	s.buf.Retransmitted(seg, s.nextPktSeq, now)
	var payload []byte
	if seg.HasStream {
		n := seg.Len
		if seg.StreamFIN {
			n-- // the phantom byte is not stream data
		}
		if n > 0 {
			payload = s.mux.FrameData(seg.StreamID, seg.StreamOff, n)
			if payload == nil {
				// Defensive: the stream released this range through another
				// path. Zero-fill so the connection sequence space still
				// repairs; the receiver drops it as a duplicate.
				payload = make([]byte, n)
			}
		}
	} else {
		payload = s.payload[:seg.Len]
	}
	p := s.dataPacket(seg, payload, true)
	s.nextPktSeq++
	s.Stats.Retransmits++
	s.emitData(p, seg.Len)
}

// dataPacket builds the DATA packet for seg's current transmission and
// advertises the oldest outstanding packet number on it.
func (s *Sender) dataPacket(seg *buffer.Segment, payload []byte, retrans bool) *packet.Packet {
	p := &packet.Packet{
		Type:         packet.TypeData,
		ConnID:       s.cfg.ConnID,
		PktSeq:       seg.PktSeq,
		SentAt:       seg.SentAt,
		Seq:          seg.Seq,
		Payload:      payload,
		Retrans:      retrans,
		FIN:          seg.FIN,
		HasStream:    seg.HasStream,
		StreamID:     seg.StreamID,
		StreamOff:    seg.StreamOff,
		StreamFIN:    seg.StreamFIN,
		OldestPktSeq: s.buf.OldestPktSeq(s.nextPktSeq),
	}
	if p.OldestPktSeq > s.advertisedOldest {
		s.advertisedOldest = p.OldestPktSeq
	}
	return p
}

func (s *Sender) emitData(p *packet.Packet, n int) {
	now := s.loop.Now()
	s.lastDataSend = now
	s.pacer.OnSend(now, n)
	s.Stats.DataPackets++
	s.Stats.DataBytes += int64(n)
	s.mDataPackets.Inc()
	if p.Retrans {
		s.mRetransmits.Inc()
	}
	s.tracer.DataSent(now, s.cfg.ConnID, p.Seq, p.PktSeq, n, p.Retrans, p.OldestPktSeq)
	s.out(p)
}

func (s *Sender) armSendTimer() {
	if s.done || !s.established {
		return
	}
	now := s.loop.Now()
	pendingRetx := s.buf.HasMarked() || len(s.fecQueue) > 0
	next := s.nextChunk()
	canNew := next > 0 && s.WindowFree() >= next
	if !pendingRetx && !canNew {
		return // ack arrival will re-arm
	}
	// Earliest moment something becomes sendable: new data now, or —
	// when only cooled-down retransmissions remain (trySend just consumed
	// every eligible one) — a poll a fraction of an RTT out.
	at := now
	if !canNew {
		at = now + s.srttOrGuess()/8
	}
	if s.cfg.DisablePacing {
		// ACK-clocked: bursts happen on ack arrival; poll at the
		// eligibility time (at least 1 ms out to avoid hot-looping).
		if at < now+sim.Millisecond {
			at = now + sim.Millisecond
		}
		s.sendTimer.Reset(at)
		return
	}
	paceAt := s.pacer.NextSendTime(now, DefaultPayload)
	if paceAt > at {
		at = paceAt
	}
	if at <= now {
		// Everything is ready now yet trySend stopped: the only legal cause
		// is the once-per-RTT rule with an eligible-at-now segment already
		// consumed this call. Defer a millisecond to guarantee progress.
		at = now + sim.Millisecond
	}
	s.sendTimer.Reset(at)
}

func (s *Sender) armRTO() {
	if s.done {
		s.rtoTimer.Stop()
		return
	}
	if s.buf.Len() == 0 && s.established {
		s.rtoTimer.Stop()
		return
	}
	// Arm only when idle: pushing the deadline back on every ACK would let
	// a stream of no-progress acknowledgments suppress the timeout forever.
	if !s.rtoTimer.Armed() {
		s.rtoTimer.ResetAfter(s.rto())
	}
}

// restartRTO re-arms the timeout after forward progress.
func (s *Sender) restartRTO() {
	if s.buf.Len() > 0 {
		s.rtoTimer.ResetAfter(s.rto())
	}
}

// onRTO handles a retransmission timeout: collapse, back off, retransmit
// the oldest segment (which doubles as a zero-window probe).
func (s *Sender) onRTO() {
	now := s.loop.Now()
	if !s.established {
		// Handshake retransmission: HandshakeBackoff, not the data-path
		// RTO, since no RTT estimate exists yet.
		s.Stats.SYNRetransmits++
		s.mSYNRetrans.Inc()
		s.out(&packet.Packet{Type: packet.TypeSYN, ConnID: s.cfg.ConnID, SentAt: now})
		s.rtoTimer.ResetAfter(s.cfg.HandshakeBackoff(s.Stats.SYNRetransmits))
		return
	}
	if s.buf.Len() == 0 {
		return
	}
	s.Stats.Timeouts++
	s.mTimeouts.Inc()
	s.tracer.RTOFired(now, s.cfg.ConnID, s.Inflight(), s.rtoBackoff)
	s.rtoBackoff = min(s.rtoBackoff+1, 6)
	s.tracer.LossEpisode(now, s.cfg.ConnID, s.Inflight(), s.Inflight(), true)
	s.ccLoss(cc.Loss{Now: now, Bytes: s.Inflight(), Inflight: s.Inflight(), Timeout: true})
	s.pacer.SetRate(now, s.ctrl.PacingRate())
	if s.rack != nil {
		// The timeout supersedes any pending tail probe; a new flight will
		// re-arm it.
		s.tlpTimer.Stop()
		s.rack.tlpOut = false
	}
	if seg := s.buf.Oldest(); seg != nil {
		s.tracer.LossMarked(now, s.cfg.ConnID, telemetry.TrigDetRTO,
			seg.Seq, seg.PktSeq, seg.Len, 0, now-seg.SentAt)
		s.retransmit(now, seg)
	}
	s.inRecovery = false
	s.rtoTimer.ResetAfter(s.rto())
}

// OnPathMigration resets congestion state after a validated path
// migration. Everything the controller learned — cwnd, pacing rate, RTT
// estimate, RTO backoff — describes a path that no longer exists, so the
// controller is rebuilt at its initial (slow-start) state and both RTT
// estimators are reseeded from scratch: a few RTTs of conservative ramp
// on the new path instead of blasting it at the old path's rate. The send
// buffer and all acknowledgment state are untouched — migration moves the
// path, not the byte stream.
func (s *Sender) OnPathMigration() {
	now := s.loop.Now()
	if ctrl, err := cc.New(s.cfg.CC); err == nil {
		s.ctrl, s.ccCWND, s.ccPacing = ctrl, 0, 0
	}
	// Reseeded in place: est keeps pointing at the one that drives control.
	*s.timing = *newEstimate()
	*s.legacyRTT = *newEstimate()
	s.rtoBackoff = 0
	s.inRecovery = false
	s.pacer = newPacer(s.ctrl.PacingRate(), 10*DefaultPayload)
	if s.rack != nil {
		// The reorder window was learned on the old path; the pending tail
		// probe was timed against the old SRTT.
		s.rack = newRackState()
		s.tlpTimer.Stop()
		s.rackTimer.Stop()
	}
	s.fecReset() // the new path's loss regime is unknown
	if s.buf.Len() > 0 {
		s.rtoTimer.ResetAfter(s.rto())
	}
	s.sendTimer.Reset(now) // resume sending on the new path immediately
}

// OnPacket dispatches an arriving packet to the sender half.
func (s *Sender) OnPacket(p *packet.Packet) {
	switch p.Type {
	case packet.TypeSYNACK:
		// Feedback overhead accounting (ACK bytes per delivered MB):
		// every ack-bearing packet the sender absorbs counts at its wire
		// encoding size.
		n := int64(p.EncodedLen())
		s.Stats.AckBytesReceived += n
		s.mAckBytes.Add(n)
		s.onSynAck(p)
	case packet.TypeTACK, packet.TypeIACK, packet.TypeFINACK:
		n := int64(p.EncodedLen())
		s.Stats.AckBytesReceived += n
		s.mAckBytes.Add(n)
		s.onAck(p)
	}
}

func (s *Sender) onSynAck(p *packet.Packet) {
	if s.established {
		return
	}
	now := s.loop.Now()
	s.established = true
	s.rtoBackoff = 0
	s.est.Update(now, s.handshakeRTT(now, p.Ack))
	s.pacer.SetRate(now, s.ctrl.PacingRate())
	if s.mux != nil && p.Ack != nil {
		// The SYNACK carries the peer's initial per-stream window grant
		// (InitialWindowID sentinel); nothing is frameable before it lands.
		s.mux.OnWindowAdverts(now, p.Ack.StreamWindows)
	}
	// Complete the handshake and seed the receiver's RTTmin (TACK interval
	// α needs it).
	s.sendRTTSync(packet.IACKHandshake)
	s.trySend()
}

// handshakeRTT is the first RTT sample: the SYN the SYNACK echoes, corrected
// by the time the peer held it (§5.2's Δt), so a lost SYN or SYNACK does not
// add a retransmission timeout to it. Time since the first SYN bounds it and
// stands in for a correction that is not positive.
func (s *Sender) handshakeRTT(now sim.Time, a *packet.AckInfo) sim.Time {
	rtt := now - s.synSentAt
	if a != nil {
		if c := now - a.EchoDeparture - a.AckDelay; c > 0 && c < rtt {
			rtt = c
		}
	}
	return rtt
}

// sendRTTSync emits an IACK syncing RTTmin and the ACK-path loss estimate
// to the receiver (§5.4).
func (s *Sender) sendRTTSync(kind packet.IACKKind) {
	now := s.loop.Now()
	min, ok := s.est.Min(now)
	if !ok {
		return
	}
	s.syncedRTTMin = min
	s.lastSyncAt = now
	s.Stats.RTTSyncsSent++
	s.sendSyncIACK(now, kind, min, s.buf.OldestPktSeq(s.nextPktSeq))
}

// sendSyncIACK emits the sender-originated IACK both syncs share: RTTmin,
// the oldest outstanding packet number and the ACK-path loss estimate.
func (s *Sender) sendSyncIACK(now sim.Time, kind packet.IACKKind, min sim.Time, oldest uint64) {
	s.advertisedOldest = oldest
	s.lastOldestSync = now
	s.tracer.RTTSync(now, s.cfg.ConnID, iackTrigger(kind), oldest, min, s.ackLoss.Rate())
	// Control packets do not consume data packet numbers: PKT.SEQ gaps are
	// the receiver's loss signal, so only DATA may advance the counter.
	s.out(&packet.Packet{
		Type: packet.TypeIACK, ConnID: s.cfg.ConnID, SentAt: now,
		IACK: kind, RTTMinNS: int64(min), AckOldestPktSeq: oldest,
		Ack: &packet.AckInfo{LossRatePermille: uint16(s.ackLoss.Rate() * 1000)},
	})
}

// senderScheme is the sender half of an acknowledgment scheme: what the
// peer's acknowledgments carry and what the sender owes it back. NewSender
// picks one — TACK below, or the legacy-TCP baseline in legacy.go — and the
// engine only ever calls it.
type senderScheme interface {
	// rtoHold and rackHold are the scheme's budgets for the longest the
	// receiver may hold an acknowledgment, added to the retransmission
	// timeout and to the RACK loss deadline.
	rtoHold(now sim.Time) sim.Time
	rackHold() sim.Time
	// absorb applies one acknowledgment beyond its cumulative byte point
	// (already released): selective release, the timing echo, and whatever
	// the receiver reported lost.
	absorb(now sim.Time, p *packet.Packet) ackSample
	// lossEpisodeBegan records where the episode that just opened ends.
	lossEpisodeBegan()
	// afterAck closes the acknowledgment: recovery exit, and anything the
	// scheme sends back to the receiver.
	afterAck(a *packet.AckInfo)
	// ackInterval is the feedback spacing the receiver keeps at delivery
	// rate bwBps and RTTmin rttMin (cc.Ack.AckInterval).
	ackInterval(bwBps float64, rttMin sim.Time) sim.Time
	// acksPktNumbers reports whether the peer's acknowledgments name packet
	// numbers, so a retransmission's acknowledgment is told from its
	// original's (ProbeInFlight).
	acksPktNumbers() bool
}

// ackSample is what a scheme extracts from one acknowledgment.
type ackSample struct {
	rtt          sim.Time // sample for the control estimator (0: none)
	rackRTT      sim.Time // the same echo as RACK wants it: receiver hold included
	lost         int      // bytes newly marked lost from the receiver's reports
	deliveryRate float64  // bit/s (0: none)
}

// tackSender is the paper's scheme: packet-number block lists, the Δt-
// corrected timing echo, receiver-reported losses and a receiver-computed
// delivery rate in, RTTmin / oldest-outstanding sync IACKs out. Its state
// lives on the Sender — TACK is the engine.
type tackSender struct{ *Sender }

// rtoHold: like QUIC's PTO, the timeout budgets the receiver's maximum
// acknowledgment delay — one TACK interval plus the IACK settle delay (each
// RTTmin/4 at the defaults).
func (s tackSender) rtoHold(now sim.Time) sim.Time {
	if min, ok := s.est.Min(now); ok {
		return min / 2
	}
	return 0
}

// rackHold: TACK thinning can hold an acknowledgment up to one TACK
// interval (~RTT/4) beyond the RTT the latest sample happened to observe;
// the RACK deadline budgets for the worst case like the probe timeout does,
// or every segment behind a fully-held ack ages into a spurious mark.
func (s tackSender) rackHold() sim.Time {
	if m, ok := s.rack.minRTT.Min(); ok {
		return m / 4
	}
	return 0
}

func (s tackSender) absorb(now sim.Time, p *packet.Packet) ackSample {
	a := p.Ack
	s.buf.AckPktRanges(a.AckedBlocks)
	// Everything below the cumulative packet number was received, even if
	// its selective-ack block was crowded out of the TACK's budget;
	// releasing it keeps the oldest-outstanding floor advancing (which in
	// turn lets the receiver drop dead holes).
	s.buf.ReleasePktBelow(a.CumPktSeq)
	// Below ReportedThrough the unacked list is complete, so the
	// complement of the listed gaps was received: release it too.
	if a.ReportedThrough > 0 {
		cur := a.CumPktSeq
		var recvd []seqspace.Range
		for _, gap := range a.UnackedBlocks {
			if gap.Lo >= a.ReportedThrough {
				break
			}
			if gap.Lo > cur {
				recvd = append(recvd, seqspace.Range{Lo: cur, Hi: gap.Lo})
			}
			if gap.Hi > cur {
				cur = gap.Hi
			}
		}
		if cur < a.ReportedThrough {
			recvd = append(recvd, seqspace.Range{Lo: cur, Hi: a.ReportedThrough})
		}
		if len(recvd) > 0 {
			s.buf.AckPktRanges(recvd)
		}
	}
	if a.LargestPktSeq > s.largestAckedPkt {
		s.largestAckedPkt = a.LargestPktSeq
	}

	var got ackSample
	if a.EchoDeparture > 0 {
		before := s.timing.Samples()
		s.timing.onEcho(now, echo{Departure: a.EchoDeparture, AckDelay: a.AckDelay, Valid: true})
		if s.timing.Samples() > before {
			got.rtt = now - a.EchoDeparture - a.AckDelay
		}
	}
	if a.FirstEchoDeparture > 0 {
		// The uncorrected sampler runs in parallel, echoing the first
		// pending packet with no Δt correction — exactly what legacy RTT
		// sampling under delayed ACKs measures (Figure 6). It only drives
		// control when LegacyTiming is set.
		s.legacyRTT.Update(now, now-a.FirstEchoDeparture)
		if s.cfg.LegacyTiming {
			got.rtt = now - a.FirstEchoDeparture
		}
	}
	// RACK deadlines bound a segment's age at ack *arrival*, so its RTT
	// base keeps the receiver's ack hold (no Δt correction): under TACK
	// thinning an ack legitimately arrives a full TACK interval after the
	// corrected RTT, and a corrected base would age every segment sitting
	// behind a held acknowledgment into a spurious loss mark.
	got.rackRTT = got.rtt
	if a.EchoDeparture > 0 {
		got.rackRTT = now - a.EchoDeparture
	}

	// Receiver-reported losses: the TACK's unacked list, or — for a loss
	// IACK that lists nothing — everything between its two packet numbers.
	ranges := a.UnackedBlocks
	if p.IACK == packet.IACKLoss && len(ranges) == 0 && a.LargestPktSeq > a.CumPktSeq {
		ranges = []seqspace.Range{{Lo: a.CumPktSeq, Hi: a.LargestPktSeq}}
	}
	for _, seg := range s.buf.MarkLossByPktRanges(ranges) {
		got.lost += seg.Len
		s.tracer.LossMarked(now, s.cfg.ConnID, telemetry.TrigDetDupThresh,
			seg.Seq, seg.PktSeq, seg.Len, 0, now-seg.SentAt)
	}
	got.deliveryRate = float64(a.DeliveryRate)
	return got
}

func (s tackSender) lossEpisodeBegan() { s.recoverPkt = s.nextPktSeq }

// ackInterval: the receiver paces its TACKs by Eq. 3 at the delivery rate it
// syncs in every acknowledgment and the RTTmin this sender syncs to it.
func (s tackSender) ackInterval(bwBps float64, rttMin sim.Time) sim.Time {
	return ackpolicy.Interval(s.cfg.Params.Beta, s.cfg.Params.L, DefaultPayload, bwBps, rttMin)
}

func (s tackSender) acksPktNumbers() bool { return true }

func (s tackSender) afterAck(*packet.AckInfo) {
	if s.inRecovery && s.largestAckedPkt >= s.recoverPkt {
		s.inRecovery = false
	}
	s.maybeSyncRTTMin()
	s.maybeSyncOldest()
}

// maybeSyncRTTMin re-syncs when the estimate moved by >10% (rate-limited
// to one per second).
func (s tackSender) maybeSyncRTTMin() {
	now := s.loop.Now()
	min, ok := s.est.Min(now)
	if !ok || now-s.lastSyncAt < sim.Second {
		return
	}
	if s.syncedRTTMin > 0 {
		diff := float64(min-s.syncedRTTMin) / float64(s.syncedRTTMin)
		if diff < 0 {
			diff = -diff
		}
		if diff < 0.1 {
			return
		}
	}
	s.sendRTTSync(packet.IACKRTTSync)
}

// maybeSyncOldest keeps the receiver's loss-state floor fresh when the
// data path cannot (window-starved or idle): if the oldest outstanding
// packet number advanced past what data packets last advertised, sync it
// with a state IACK (§4.4), rate-limited to a fraction of the RTT.
func (s tackSender) maybeSyncOldest() {
	now := s.loop.Now()
	oldest := s.buf.OldestPktSeq(s.nextPktSeq)
	if oldest <= s.advertisedOldest {
		return
	}
	interval := s.est.Smoothed() / 4
	if interval < 5*sim.Millisecond {
		interval = 5 * sim.Millisecond
	}
	if now-s.lastOldestSync < interval {
		return
	}
	min, _ := s.est.Min(now)
	s.sendSyncIACK(now, packet.IACKRTTSync, min, oldest)
}

// onAck is the heart of the sender: cumulative release, the scheme's share
// (selective release, timing, reported losses), RACK, and
// congestion-controller feedback.
func (s *Sender) onAck(p *packet.Packet) {
	now := s.loop.Now()
	a := p.Ack
	if a == nil {
		return
	}
	if !s.established {
		// An ack implies the receiver saw our handshake.
		s.established = true
		s.pacer.SetRate(now, s.ctrl.PacingRate())
	}
	s.Stats.AcksReceived++
	if p.Type == packet.TypeIACK {
		s.Stats.IACKsReceived++
	}
	s.ackLoss.OnAck(a.AckSeq)

	// --- Release acknowledged data. ---
	var ackFloor sim.Time
	if s.rack != nil {
		if m, ok := s.rack.minRTT.Min(); ok {
			ackFloor = m
		}
	}
	s.buf.BeginAck(now, ackFloor)
	if a.CumAck > s.cumAcked {
		s.cumAcked = a.CumAck
		s.rtoBackoff = 0
		s.restartRTO()
	} else if a.LargestPktSeq > s.largestAckedPkt {
		// QUIC-style: any acknowledgment of new data proves the pipe is
		// alive; hole repair is the loss-report machinery's job, so the
		// timeout only backstops total silence. (Legacy acknowledgments
		// carry no packet numbers and never get here.)
		s.rtoBackoff = 0
		s.restartRTO()
	}
	s.buf.AckBytes(a.CumAck)
	got := s.scheme.absorb(now, p)
	ackedBytes := max(s.buf.ReleasedBytes()-s.lastDeliveredBytes, 0)

	// --- Loss handling. ---
	lostBytes := got.lost
	if s.rack != nil {
		if got.rackRTT > 0 {
			s.rack.onRTTSample(got.rackRTT)
		}
		if s.rack.tlpOut && (s.largestAckedPkt >= s.rack.tlpHighPkt ||
			s.buf.ByPktSeq(s.rack.tlpHighPkt) == nil) {
			// The probe (or anything beyond it) was acknowledged, or its
			// segment was released/superseded: the probe is answered.
			s.rack.tlpOut = false
		}
		lostBytes += s.rackDetect(now)
	}

	s.mAcksReceived.Inc()
	if got.rtt > 0 {
		s.mRTT.Observe(got.rtt.Seconds())
	}
	s.tracer.AckReceived(now, s.cfg.ConnID, iackTrigger(p.IACK), a.CumAck,
		a.LargestPktSeq, ackedBytes, got.rtt, got.deliveryRate)

	// --- Feed the controller. ---
	min, _ := s.est.Min(now)
	s.ctrl.OnAck(cc.Ack{
		Now:          now,
		Bytes:        int(ackedBytes),
		RTT:          got.rtt,
		SRTT:         s.est.Smoothed(),
		MinRTT:       min,
		DeliveryRate: got.deliveryRate,
		Inflight:     s.Inflight(),
		AppLimited:   !s.StreamBacklog() && s.buf.Len() == 0,
		AckInterval:  s.scheme.ackInterval(got.deliveryRate, min),
	})
	s.publishCC(now, false)
	s.enterLossEpisode(now, lostBytes)
	s.pacer.SetRate(now, s.ctrl.PacingRate())

	// --- Adaptive FEC redundancy. ---
	if len(s.fecStreams) > 0 {
		s.fecOnAck(a)
	}

	// --- Flow control. ---
	s.awnd = a.Window
	s.awndKnown = true
	if s.mux != nil && len(a.StreamWindows) > 0 {
		// Raised per-stream limits may unblock scheduler entries; the
		// trySend below picks them up.
		s.mux.OnWindowAdverts(now, a.StreamWindows)
	}

	s.scheme.afterAck(a)

	// --- Completion. ---
	s.Stats.BytesAcked = int64(s.cumAcked)
	if s.cfg.TransferBytes > 0 && !s.done &&
		s.finSent && int64(s.cumAcked) >= s.cfg.TransferBytes {
		s.done = true
		s.Stop()
		if s.OnDone != nil {
			s.OnDone()
		}
		return
	}
	s.lastDeliveredBytes = s.buf.ReleasedBytes()
	s.trySend()
}

// enterLossEpisode opens a recovery episode and cuts the controller once
// per flight of newly marked bytes (no-op while already in recovery).
func (s *Sender) enterLossEpisode(now sim.Time, lostBytes int) {
	if lostBytes <= 0 || s.inRecovery {
		return
	}
	s.inRecovery = true
	s.scheme.lossEpisodeBegan()
	s.Stats.LossEpisodes++
	s.mLossEpisodes.Inc()
	s.tracer.LossEpisode(now, s.cfg.ConnID, lostBytes, s.Inflight(), false)
	s.ccLoss(cc.Loss{Now: now, Bytes: lostBytes, Inflight: s.Inflight()})
}

// ccLoss hands the controller a loss episode and publishes its reaction.
func (s *Sender) ccLoss(l cc.Loss) {
	s.mCCLosses.Inc()
	s.ctrl.OnLoss(l)
	s.publishCC(l.Now, true)
}

// publishCC publishes the controller's outputs after it took feedback: a
// cc_update event and the cc.* gauges, when an output changed or the
// feedback was a loss.
func (s *Sender) publishCC(now sim.Time, onLoss bool) {
	cwnd, pacing := s.ctrl.CWND(), s.ctrl.PacingRate()
	if cwnd == s.ccCWND && pacing == s.ccPacing && !onLoss {
		return
	}
	s.ccCWND, s.ccPacing = cwnd, pacing
	s.mCWND.Set(float64(cwnd))
	s.mPacing.Set(pacing)
	s.tracer.CCUpdate(now, s.cfg.ConnID, cwnd, pacing, onLoss)
}

// Kick schedules an immediate send attempt (used by harnesses after
// construction or when the source becomes ready).
func (s *Sender) Kick() { s.trySend() }

// CumAcked returns the cumulative acknowledged byte offset.
func (s *Sender) CumAcked() uint64 { return s.cumAcked }

// SendFIN announces the end of the byte stream at what was sent so far:
// a graceful close, which the receiver answers with a FINACK.
func (s *Sender) SendFIN() {
	s.out(&packet.Packet{Type: packet.TypeFIN, ConnID: s.cfg.ConnID, SentAt: s.loop.Now(), Seq: s.nextSeq})
}

// SendKeepalive emits a liveness-probe IACK carrying the oldest
// outstanding packet number. Like every control packet it consumes no
// packet number.
func (s *Sender) SendKeepalive() {
	s.out(&packet.Packet{
		Type: packet.TypeIACK, ConnID: s.cfg.ConnID, SentAt: s.loop.Now(),
		IACK: packet.IACKKeepalive, AckOldestPktSeq: s.buf.OldestPktSeq(s.nextPktSeq),
	})
}
