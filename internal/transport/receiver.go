package transport

import (
	"github.com/tacktp/tack/internal/ackpolicy"
	"github.com/tacktp/tack/internal/buffer"
	"github.com/tacktp/tack/internal/fec"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/seqspace"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/stream"
	"github.com/tacktp/tack/internal/telemetry"
)

// maxStreamAdverts bounds the per-stream window advertisements attached to
// one acknowledgment; dirtier streams stay pending for the next ack. Kept
// small so adverts never crowd the TACK's selective-ack block budget.
const maxStreamAdverts = 8

// Receiver is the receiving half of a connection.
type Receiver struct {
	loop *sim.Loop
	cfg  Config
	out  Output

	buf *buffer.ReceiveBuffer
	// mux demultiplexes STREAM frames into per-stream reassembly buffers
	// (nil on single-bytestream connections). The connection-level buf
	// keeps running in accounting-only mode underneath: it still derives
	// CumAck and loss state from connection sequence numbers, while the
	// payload bytes live in the mux's per-stream rings.
	mux *stream.RecvMux
	// scheme is the acknowledgment scheme this half speaks — TACK, or the
	// legacy-TCP baseline of legacy.go — picked once in NewReceiver.
	scheme receiverScheme
	policy ackpolicy.Policy
	loss   *lossTracker
	budget *blockBudget
	window *windowMonitor
	timing *receiverTiming
	deliv  *deliveryEstimator

	// PKT.SEQ → byte-range mapping so cumPktSeq can be derived and dup data
	// recognized.
	cumPktSeq uint64 // all packet numbers < this are accounted for

	// Synced state from the sender.
	rttMin   sim.Time
	rhoPrime float64 // ACK-path loss rate synced from sender

	ackSeq     uint64 // acknowledgment sequence numbers (for ρ′ at sender)
	nextPktSeq uint64

	// Handshake retransmission state.
	synSeen      bool     // a SYN has arrived (SYNACK state is valid)
	synDeparture sim.Time // SentAt of the most recent SYN, echoed on retransmits

	// Departure timestamp of the first packet the pending acknowledgment
	// will cover: the legacy timestamp echo, and on a TACK the uncorrected
	// FirstEchoDeparture of the Figure 6(a) sampled-vs-advanced comparison.
	firstEchoDeparture sim.Time
	firstEchoValid     bool

	lastRho      float64  // last interval loss rate
	lastLossIACK sim.Time // rate limit: one loss IACK per settle delay
	pktFloor     uint64   // sender's oldest outstanding packet number

	// Adaptive settle-delay state (§7 future work).
	settleScale float64
	lastAdaptAt sim.Time
	lastDupSeen int

	ackTimer    *sim.Timer
	settleTimer *sim.Timer
	streamTimer *sim.Timer // urgent stream-window IACK (default mux kick)

	// Forward error correction (see fec.go): the group decoder plus
	// watermarks for mirroring its monotonic counters into stats/metrics.
	fecDec         *fec.Decoder
	fecUsedSeen    uint64
	fecWastedSeen  uint64
	fecDroppedSeen uint64

	// Stats and instrumentation.
	Stats ReceiverStats

	// Telemetry (nil-safe no-ops when un-instrumented).
	tracer             *telemetry.Tracer
	mDataPackets       *telemetry.Counter
	mTACKs             *telemetry.Counter
	mIACKs             *telemetry.Counter
	mLosses            *telemetry.Counter
	mAckBytes          *telemetry.Counter
	mLossLatency       *telemetry.Histogram
	mFECRepairsRecv    *telemetry.Counter
	mFECRecovered      *telemetry.Counter
	mFECRecoveredBytes *telemetry.Counter
	mFECRepairsUsed    *telemetry.Counter
	mFECRepairsWasted  *telemetry.Counter
	mFECDropped        *telemetry.Counter

	// OnComplete fires once when a bounded stream has fully arrived.
	OnComplete func()
	completed  bool
}

// NewReceiver builds the receiving half. Packets are emitted through out.
func NewReceiver(loop *sim.Loop, cfg Config, out Output) *Receiver {
	cfg = cfg.withDefaults()
	legacy := cfg.Mode == ModeLegacy
	r := &Receiver{
		loop:   loop,
		cfg:    cfg,
		out:    out,
		buf:    buffer.NewReceiveBuffer(cfg.RecvBuf),
		policy: cfg.AckPolicy,
		loss:   newLossTracker(),
		budget: newBlockBudget(cfg.Params),
		window: newWindowMonitor(cfg.RecvBuf),
		timing: newReceiverTiming(),
		deliv:  newDeliveryEstimator(sim.Second),

		tracer:       cfg.Tracer,
		mDataPackets: cfg.Metrics.Counter("rcv.data_packets"),
		mTACKs:       cfg.Metrics.Counter("rcv.tacks_sent"),
		mIACKs:       cfg.Metrics.Counter("rcv.iacks_sent"),
		mLosses:      cfg.Metrics.Counter("rcv.losses_detected"),
		mAckBytes:    cfg.Metrics.Counter("rcv.ack_bytes_sent"),
		mLossLatency: cfg.Metrics.Histogram("rcv.loss_latency_s"),

		mFECRepairsRecv:    cfg.Metrics.Counter("fec.repairs_received"),
		mFECRecovered:      cfg.Metrics.Counter("fec.recovered"),
		mFECRecoveredBytes: cfg.Metrics.Counter("fec.recovered_bytes"),
		mFECRepairsUsed:    cfg.Metrics.Counter("fec.repairs_used"),
		mFECRepairsWasted:  cfg.Metrics.Counter("fec.repairs_wasted"),
		mFECDropped:        cfg.Metrics.Counter("fec.dropped"),
	}
	r.tracer.FlowParams(loop.Now(), cfg.ConnID, legacy,
		cfg.Params.Beta, cfg.Params.L, DefaultPayload, cfg.Params.SettleFraction)
	if legacy {
		r.scheme = legacyReceiver{r}
		if r.policy == nil {
			r.policy = ackpolicy.NewDelayed(40 * sim.Millisecond)
		}
	} else {
		r.scheme = tackReceiver{r}
		if r.policy == nil {
			r.policy = ackpolicy.NewTACK(cfg.Params.Beta, cfg.Params.L)
		}
	}
	r.ackTimer = sim.NewTimer(loop, r.onAckTimer)
	r.settleTimer = sim.NewTimer(loop, r.onSettleTimer)
	r.streamTimer = sim.NewTimer(loop, r.FlushStreamWindows)
	if cfg.Streams != nil {
		r.mux = stream.NewRecvMux(*cfg.Streams, stream.RecvDeps{
			ConnID:        cfg.ConnID,
			Tracer:        cfg.Tracer,
			Metrics:       cfg.Metrics,
			WindowRelease: r.window.release,
		})
		// FEC recovery synthesizes STREAM frames, so the decoder only
		// exists on stream-multiplexed connections.
		r.fecDec = fec.NewDecoder(0, 0)
		// Default kick: route the urgent window update through the loop
		// (the kick fires under the mux lock, which FlushStreamWindows
		// re-acquires). Endpoint owners install a cross-goroutine kick via
		// Streams().SetKick.
		r.mux.SetKick(r.KickStreams)
	}
	return r
}

// Streams returns the stream demultiplexer, or nil when the connection is
// a single bytestream.
func (r *Receiver) Streams() *stream.RecvMux { return r.mux }

// KickStreams schedules an urgent stream-window IACK check without
// re-entering the stream mux: safe to call from the mux kick callback,
// which runs with the mux lock held. Loop-goroutine only.
func (r *Receiver) KickStreams() { r.streamTimer.Reset(r.loop.Now()) }

// FlushStreamWindows emits a window-update IACK when an urgent
// advertisement is pending (the application released at least half a
// stream window, or reopened more of the connection window than the
// window monitor's threshold — the paper's §4.4 immediate-feedback case).
// It is the read-side analogue of windowMoved and a no-op otherwise.
func (r *Receiver) FlushStreamWindows() {
	if r.mux == nil || !r.mux.UrgentAdvert() {
		return
	}
	r.Stats.WindowIACKs++
	r.sendAck(packet.TypeIACK, packet.IACKWindow, telemetry.TrigWindow, nil)
}

// OnPathMigration resets path-derived measurement state after a validated
// path migration: the one-way-delay timing chain and the delivery-rate
// filter both describe the old path, and feeding their stale maxima into
// Eq. 3 would size the ack frequency (and the sender's model of the pipe)
// for a network that is gone. Reassembly, loss and acknowledgment state
// survive untouched — the byte stream is path-independent. rttMin is kept
// as a prior until the sender's next RTT-sync IACK overwrites it from its
// own reseeded estimator.
func (r *Receiver) OnPathMigration() {
	r.timing = newReceiverTiming()
	r.deliv = newDeliveryEstimator(sim.Second)
}

// Stop disarms the receiver's timers, so that a loop shared with other
// connections holds nothing of one its owner has removed.
func (r *Receiver) Stop() {
	r.ackTimer.Stop()
	r.settleTimer.Stop()
	r.streamTimer.Stop()
}

// Delivered returns the in-order bytes handed to the application.
func (r *Receiver) Delivered() int64 { return int64(r.buf.Delivered()) }

// Buffer exposes the reassembly buffer (experiments sample HoLB state).
func (r *Receiver) Buffer() *buffer.ReceiveBuffer { return r.buf }

// Complete reports whether a bounded stream fully arrived and drained.
func (r *Receiver) Complete() bool { return r.buf.Complete() }

// settleDelay returns the IACK reordering settle delay: the configured
// RTTmin/SettleFraction baseline, scaled up when AdaptiveSettle detects
// spurious retransmissions (duplicates imply reordering was declared loss).
func (r *Receiver) settleDelay() sim.Time {
	base := 5 * sim.Millisecond
	if r.rttMin > 0 {
		base = r.rttMin / sim.Time(r.cfg.Params.SettleFraction)
	}
	if !r.cfg.AdaptiveSettle {
		return base
	}
	if r.settleScale < 1 {
		r.settleScale = 1
	}
	return sim.Time(float64(base) * r.settleScale)
}

// adaptSettle reviews the duplicate count once per RTT-scale interval and
// steers the settle-delay scale: up 1.5x per dirty interval (clamped at 4x,
// one full RTTmin), down 10% per clean interval.
func (r *Receiver) adaptSettle(now sim.Time) {
	if !r.cfg.AdaptiveSettle {
		return
	}
	interval := r.rttMin
	if interval <= 0 {
		interval = 100 * sim.Millisecond
	}
	if now-r.lastAdaptAt < interval {
		return
	}
	r.lastAdaptAt = now
	dups := r.Stats.DupPackets - r.lastDupSeen
	r.lastDupSeen = r.Stats.DupPackets
	if r.settleScale < 1 {
		r.settleScale = 1
	}
	if dups > 0 {
		r.settleScale *= 1.5
		if r.settleScale > 4 {
			r.settleScale = 4
		}
	} else {
		r.settleScale *= 0.9
		if r.settleScale < 1 {
			r.settleScale = 1
		}
	}
}

// OnPacket dispatches an arriving packet to the receiver half.
func (r *Receiver) OnPacket(p *packet.Packet) {
	switch p.Type {
	case packet.TypeSYN:
		r.onSYN(p)
	case packet.TypeData:
		r.onData(p)
	case packet.TypeIACK:
		r.onSenderIACK(p)
	case packet.TypeFIN:
		r.buf.OnFIN(p.Seq)
		r.sendAck(packet.TypeFINACK, packet.IACKKind(0), telemetry.TrigFIN, nil)
	case packet.TypeRepair:
		r.onRepair(p)
	}
}

func (r *Receiver) onSYN(p *packet.Packet) {
	r.synSeen = true
	r.synDeparture = p.SentAt
	r.emitSYNACK(p.SentAt)
}

// RetransmitSYNACK re-emits the SYNACK for a connection whose handshake has
// not completed — the embryo's previous SYNACK was presumably lost. The
// echoed departure timestamp is the original SYN's, so the client's initial
// RTT sample stays honest (it measures SYN→SYNACK, inflated only by the
// genuine retransmission delay). It reports false, and emits nothing, if no
// SYN has arrived yet.
func (r *Receiver) RetransmitSYNACK() bool {
	if !r.synSeen {
		return false
	}
	r.Stats.SYNACKRetransmits++
	r.emitSYNACK(r.synDeparture)
	return true
}

// emitSYNACK sends one SYNACK echoing the given SYN departure time. On
// stream-multiplexed connections it carries the initial per-stream window
// grant (InitialWindowID sentinel) — the peer can frame nothing before it.
func (r *Receiver) emitSYNACK(echo sim.Time) {
	a := &packet.AckInfo{
		EchoDeparture: echo,
		Window:        r.advertisedWindow(),
		AckSeq:        r.ackSeq,
	}
	if r.mux != nil {
		a.StreamWindows = []packet.StreamWindow{
			{ID: packet.InitialWindowID, Limit: r.mux.InitialWindow()},
		}
	}
	pkt := &packet.Packet{
		Type: packet.TypeSYNACK, ConnID: r.cfg.ConnID, PktSeq: r.nextPktSeq,
		SentAt: r.loop.Now(), Ack: a,
	}
	n := int64(pkt.EncodedLen())
	r.Stats.AckBytesSent += n
	r.mAckBytes.Add(n)
	r.out(pkt)
	r.nextPktSeq++
	r.ackSeq++
}

// updateFloor advances the sender-advertised oldest-outstanding floor and
// compacts loss state below it.
func (r *Receiver) updateFloor(oldest uint64) {
	if oldest <= r.pktFloor {
		return
	}
	r.pktFloor = oldest
	r.loss.Compact(r.pktFloor)
	if r.cumPktSeq < r.pktFloor {
		r.cumPktSeq = r.pktFloor
	}
}

// onSenderIACK handles sender-originated IACKs (handshake completion and
// RTTmin / oldest-outstanding sync).
func (r *Receiver) onSenderIACK(p *packet.Packet) {
	r.updateFloor(p.AckOldestPktSeq)
	switch p.IACK {
	case packet.IACKHandshake, packet.IACKRTTSync:
		if p.RTTMinNS > 0 {
			r.rttMin = sim.Time(p.RTTMinNS)
			r.policy.Update(r.deliv.MaxBps(r.loop.Now()), r.rttMin)
			// θ_filter for the delivery max filter: ~10 RTTs, floored.
			w := 10 * r.rttMin
			if w < 500*sim.Millisecond {
				w = 500 * sim.Millisecond
			}
			r.deliv.SetWindow(w)
		}
		if p.Ack != nil {
			r.rhoPrime = float64(p.Ack.LossRatePermille) / 1000
		}
	}
}

func (r *Receiver) onData(p *packet.Packet) {
	r.Stats.DataPackets++
	r.mDataPackets.Inc()
	r.deliver(r.loop.Now(), p, false)
}

// deliver runs one DATA packet through reassembly, stream demultiplex, the
// delivery-rate and loss trackers, the drain and the acknowledgment
// decision. recovered marks a packet FEC reconstructed rather than one that
// arrived: it never crossed the path, so it yields no timing sample (a
// synthetic timestamp would poison the Δt correction), is not mirrored back
// into the decoder, and only has its packet number marked received — the
// settle timer and the sender's floor are the business of real arrivals. A
// recovered packet the buffer cannot hold is dropped; the original may yet
// be retransmitted.
func (r *Receiver) deliver(now sim.Time, p *packet.Packet, recovered bool) {
	// Connection-sequence-space footprint: a StreamFIN frame occupies one
	// phantom byte beyond its payload (see internal/stream).
	wire := len(p.Payload)
	if p.HasStream && p.StreamFIN {
		wire++
	}
	accepted, overflow := r.buf.Offer(p.Seq, wire)
	if overflow {
		r.Stats.Overflows++
		if recovered {
			return
		}
	}
	if p.FIN {
		r.buf.OnFIN(p.Seq + uint64(len(p.Payload)))
	}
	if p.HasStream && r.mux != nil && !overflow {
		// Demultiplex the payload into its stream's reassembly ring. The
		// mux does its own duplicate/flow-control accounting; connection
		// sequence state above is untouched by a stream-level refusal.
		r.mux.OnFrame(now, p.StreamID, p.StreamOff, p.Payload, p.StreamFIN)
	}
	if !recovered {
		if accepted == 0 && !overflow {
			r.Stats.DupPackets++
		}
		// Mirror FEC-tagged sources into the group decoder (may complete a
		// recovery if this group's repairs arrived first).
		r.fecOnData(p)
	}
	r.deliv.OnDeliver(now, accepted)
	if recovered {
		r.loss.OnPacket(now, p.PktSeq)
	} else {
		r.timing.OnData(now, p.SentAt)
		if !r.firstEchoValid {
			r.firstEchoDeparture = p.SentAt
			r.firstEchoValid = true
		}
		r.scheme.onData(now, p)
	}

	r.Stats.BytesDelivered += int64(r.buf.Read(r.buf.Readable()))
	r.adaptSettle(now)

	// Ack-policy decision. FIN-bearing data is acknowledged immediately so
	// the sender learns of completion without waiting out the tail timer.
	if fire := r.policy.OnData(now, accepted); fire || p.FIN {
		trig := policyTrigger(r.policy.LastTrigger())
		if !fire {
			trig = telemetry.TrigFIN
		}
		r.sendTACK(trig)
	} else {
		r.armAckTimer()
	}
	r.scheme.windowMoved()
	r.checkComplete()
}

func (r *Receiver) checkComplete() {
	if r.completed || !r.buf.Complete() {
		return
	}
	r.completed = true
	if r.OnComplete != nil {
		r.OnComplete()
	}
}

func (r *Receiver) armAckTimer() {
	if d := r.policy.Deadline(r.loop.Now()); d > 0 {
		r.ackTimer.Reset(d)
	}
}

func (r *Receiver) onAckTimer() {
	// After OnData declined, the policy's last trigger explains what a
	// timer-driven acknowledgment means (periodic boundary or tail delay).
	r.sendTACK(policyTrigger(r.policy.LastTrigger()))
}

func (r *Receiver) armSettleTimer() {
	if d, ok := r.loss.NextDue(r.settleDelay()); ok {
		if !r.settleTimer.Armed() || r.settleTimer.Deadline() > d {
			r.settleTimer.Reset(d)
		}
	}
}

// onSettleTimer fires loss-event IACKs for gaps that outlived the
// reordering settle delay. Loss IACKs are rate-limited to one per settle
// delay: a single IACK already reports every due range, and TACKs repeat
// anything an IACK misses (§5.1).
func (r *Receiver) onSettleTimer() {
	now := r.loop.Now()
	if wait := r.lastLossIACK + r.settleDelay(); now < wait && r.lastLossIACK > 0 {
		r.settleTimer.Reset(wait)
		return
	}
	due := r.loss.DueLossDetails(now, r.settleDelay())
	r.Stats.LossesDetected += len(due)
	r.mLosses.Add(int64(len(due)))
	// Paper §5.1: the loss IACK reports the *most recent* loss event — the
	// freshly settled ranges — not the whole backlog. Robustness against a
	// lost IACK comes from the TACK's periodic unacked list (rich TACKs
	// repeat everything; poor TACKs process the oldest Q blocks per TACK).
	if len(due) > 0 {
		r.lastLossIACK = now
		ranges := make([]seqspace.Range, len(due))
		for i, d := range due {
			ranges[i] = d.Range
			// Detection latency: gap first observed → loss declared.
			r.tracer.LossDeclared(now, r.cfg.ConnID, d.Range.Lo, d.Range.Hi, now-d.Observed)
			r.mLossLatency.Observe((now - d.Observed).Seconds())
		}
		// A single IACK carries at most an MSS worth of blocks; large loss
		// bursts (e.g. a startup overshoot) are chunked across several
		// IACKs so no due range is silently dropped.
		budget := packet.MaxBlocks(ackpolicy.MSS) / 2
		if budget < 1 {
			budget = 1
		}
		for start := 0; start < len(ranges); start += budget {
			end := start + budget
			if end > len(ranges) {
				end = len(ranges)
			}
			r.Stats.LossIACKs++
			r.sendAck(packet.TypeIACK, packet.IACKLoss, telemetry.TrigLoss, ranges[start:end])
		}
	}
	r.armSettleTimer()
}

// sendTACK emits a scheduled acknowledgment (closing the delivery-rate and
// loss-rate measurement intervals). trigger names the Eq. 3 condition that
// warranted it (telemetry only).
func (r *Receiver) sendTACK(trigger uint8) {
	r.sendAck(packet.TypeTACK, packet.IACKKind(0), trigger, nil)
}

// sendAck builds and emits an acknowledgment of the given type. lossRanges
// carries the freshly due loss ranges for a loss IACK; trigger is the
// telemetry cause discriminator.
func (r *Receiver) sendAck(typ packet.Type, kind packet.IACKKind, trigger uint8, lossRanges []seqspace.Range) {
	now := r.loop.Now()
	a := &packet.AckInfo{
		CumAck: r.buf.NextExpected(),
		AckSeq: r.ackSeq,
	}
	r.ackSeq++
	if r.mux != nil {
		// Per-stream limits that rose since last advertised, plus the
		// standing initial grant for streams the peer has yet to open
		// (repeated every ack so a lost SYNACK cannot wedge the sender).
		// Collected before the window is read, so an application read
		// racing this acknowledgment can at worst arm one early window
		// update, never hide a release.
		a.StreamWindows = append(
			r.mux.WindowAdverts(now, maxStreamAdverts),
			packet.StreamWindow{ID: packet.InitialWindowID, Limit: r.mux.InitialWindow()},
		)
	}
	a.Window = r.advertisedWindow()

	r.scheme.fill(now, a, typ, kind, lossRanges)

	if typ == packet.TypeTACK {
		r.Stats.TACKsSent++
		r.mTACKs.Inc()
	} else if typ == packet.TypeIACK {
		r.Stats.IACKsSent++
		r.mIACKs.Inc()
	}
	r.tracer.AckSent(now, r.cfg.ConnID, trigger, a.CumAck, a.LargestPktSeq,
		len(a.UnackedBlocks), r.rttMin, float64(a.DeliveryRate))
	r.policy.OnAckSent(now)
	r.window.OnAckSent(a.Window)
	r.ackTimer.Stop()
	r.armAckTimer()

	pkt := &packet.Packet{
		Type: typ, ConnID: r.cfg.ConnID, PktSeq: r.nextPktSeq, SentAt: now,
		IACK: kind, Ack: a,
	}
	// Feedback overhead accounting (ACK bytes per delivered MB): every
	// acknowledgment leaves at its wire encoding size.
	n := int64(pkt.EncodedLen())
	r.Stats.AckBytesSent += n
	r.mAckBytes.Add(n)
	r.out(pkt)
	r.nextPktSeq++
}

// advertisedWindow is the connection window an acknowledgment carries. On
// a stream connection the reassembly buffer only accounts (it auto-drains)
// and the bytes actually held live in the stream rings, so the window is
// capacity minus those, never more than the buffer's own.
func (r *Receiver) advertisedWindow() uint64 {
	w := r.buf.Window()
	if r.mux != nil {
		if free := int64(r.cfg.RecvBuf) - int64(r.mux.Buffered()); free < int64(w) {
			w = uint64(max(free, 0))
		}
	}
	return w
}

// bdpBytes estimates the flow's bandwidth-delay product for the block
// budget regime decision.
func (r *Receiver) bdpBytes(now sim.Time) float64 {
	return r.deliv.MaxBps(now) / 8 * r.rttMin.Seconds()
}

// contiguousPktSeq returns the packet number up to which everything
// arrived.
func (r *Receiver) contiguousPktSeq() uint64 {
	largest, ok := r.loss.Largest()
	if !ok {
		return 0
	}
	// Walk the received set from cumPktSeq.
	for r.cumPktSeq <= largest && r.loss.Received(r.cumPktSeq) {
		r.cumPktSeq++
	}
	return r.cumPktSeq
}

// DeliveryRateBps returns the receiver's windowed-max delivery-rate
// estimate in bit/s (0 until the first interval closes).
func (r *Receiver) DeliveryRateBps() float64 { return r.deliv.MaxBps(r.loop.Now()) }

// RTTMinSynced returns the sender-synced RTTmin (0 before the first
// RTT-sync IACK lands).
func (r *Receiver) RTTMinSynced() sim.Time { return r.rttMin }

// AckTargetHz returns the acknowledgment frequency the scheme aims for at
// the receiver's current delivery-rate and RTTmin state: Eq. 3's
// min(bw/(L·MSS), β/RTTmin) on a TACK connection, 0 when neither bound is
// computable yet or the scheme has no such target (legacy).
func (r *Receiver) AckTargetHz() float64 { return r.scheme.targetHz() }

// receiverScheme is the receiver half of an acknowledgment scheme: what an
// arriving DATA packet is tracked by, when the window is worth an immediate
// acknowledgment, and what an acknowledgment carries. NewReceiver picks one
// — TACK below, or the legacy-TCP baseline in legacy.go — and the engine
// only ever calls it.
type receiverScheme interface {
	// onData notes an accepted-or-not DATA packet's arrival.
	onData(now sim.Time, p *packet.Packet)
	// windowMoved runs whenever the receive window may have changed.
	windowMoved()
	// fill completes an outgoing acknowledgment beyond CumAck, Window and
	// AckSeq. lossRanges are a loss IACK's freshly due ranges.
	fill(now sim.Time, a *packet.AckInfo, typ packet.Type, kind packet.IACKKind, lossRanges []seqspace.Range)
	// targetHz answers AckTargetHz.
	targetHz() float64
}

// tackReceiver is the paper's scheme: PKT.SEQ loss tracking with a settle
// delay, window IACKs, and TACKs carrying block lists, the timing echo and
// the delivery-rate / loss-rate sync. Its state lives on the Receiver.
type tackReceiver struct{ *Receiver }

func (r tackReceiver) onData(now sim.Time, p *packet.Packet) {
	_, gapped := r.loss.OnPacket(now, p.PktSeq)
	if gapped && !r.cfg.DisableIACK {
		r.armSettleTimer()
	}
	// Discard loss state below the sender's oldest outstanding packet
	// number: those holes can never fill (the sender repaired them under
	// fresh numbers) and must not clog the unacked lists.
	r.updateFloor(p.OldestPktSeq)
}

// windowMoved announces abrupt receive-window changes immediately.
func (r tackReceiver) windowMoved() {
	if r.window.Check(r.advertisedWindow()) {
		r.Stats.WindowIACKs++
		r.sendAck(packet.TypeIACK, packet.IACKWindow, telemetry.TrigWindow, nil)
	}
}

func (r tackReceiver) fill(now sim.Time, a *packet.AckInfo, typ packet.Type, kind packet.IACKKind, lossRanges []seqspace.Range) {
	largest, have := r.loss.Largest()
	if have {
		a.LargestPktSeq = largest
	}
	a.CumPktSeq = r.contiguousPktSeq()
	// Delivery-rate / loss-rate sync (only TACKs close intervals, so
	// IACKs do not fragment the measurement).
	if typ == packet.TypeTACK {
		sample := r.deliv.EndInterval(now)
		if sample.Packets > 0 {
			r.tracer.RateSample(now, r.cfg.ConnID, sample.Bytes, sample.Elapsed, sample.IntervalBps())
		}
		r.lastRho = r.loss.CloseInterval()
		echo := r.timing.OnAckSent(now)
		if echo.Valid {
			a.EchoDeparture = echo.Departure
			a.AckDelay = echo.AckDelay
		}
		if r.firstEchoValid {
			a.FirstEchoDeparture = r.firstEchoDeparture
			r.firstEchoValid = false
		}
	}
	a.DeliveryRate = uint64(r.deliv.MaxBps(now))
	a.LossRatePermille = uint16(r.lastRho * 1000)
	r.policy.Update(float64(a.DeliveryRate), r.rttMin)

	// Block lists. §5.1: a TACK only repeats missing packets already
	// reported by loss-event IACKs (the settle timer feeds that pool). With
	// IACKs disabled (Figure 5(a) ablation) nothing enters the pool and
	// loss recovery falls back to the sender's RTO, exactly as the paper's
	// "without IACK" arm degrades.
	maxBlocks := packet.MaxBlocks(ackpolicy.MSS)
	acked := r.loss.AckedRanges()
	unacked := r.loss.ReportedMissing()
	if typ == packet.TypeIACK && kind == packet.IACKLoss {
		// Loss IACK: report the fresh ranges (plus cumulative state).
		unacked = lossRanges
	}
	ackedBudget, unackedBudget := maxBlocks/2, maxBlocks/2
	if !r.cfg.RichTACK && !(typ == packet.TypeIACK && kind == packet.IACKLoss) {
		// TACK-poor: the periodic TACK repeats only the Appendix A
		// budget. A loss IACK always reports every due range — that is
		// its entire purpose (§4.4).
		q := r.budget.Blocks(r.lastRho, r.rhoPrime, r.bdpBytes(now))
		if q < len(unacked) {
			unackedBudget = q
		}
		ackedBudget = 2 // cumulative prefix plus the freshest block
	}
	a.AckedBlocks, a.UnackedBlocks = buildBlocks(acked, unacked, ackedBudget, unackedBudget)
	// ReportedThrough: the unacked list is authoritative below the
	// first pending (unsettled) suspect and below its own truncation
	// point — everything under it not listed as a gap was received.
	// A loss IACK carries only the newest gaps (not the full map), so
	// it must not claim completeness.
	if kind != packet.IACKLoss {
		rt := a.LargestPktSeq + 1
		if fr, ok := r.loss.SuspectFrontier(); ok && fr < rt {
			rt = fr
		}
		if len(a.UnackedBlocks) < len(unacked) {
			// Truncated: complete only below the first omitted gap.
			if cut := unacked[len(a.UnackedBlocks)].Lo; cut < rt {
				rt = cut
			}
		}
		a.ReportedThrough = rt
	}
}

// targetHz is Eq. 3's frequency at the receiver's delivery-rate and RTTmin
// state, with the discretizations the live policy applies.
func (r tackReceiver) targetHz() float64 {
	iv := ackpolicy.Interval(r.cfg.Params.Beta, r.cfg.Params.L, DefaultPayload, r.deliv.MaxBps(r.loop.Now()), r.rttMin)
	if iv == 0 {
		return 0
	}
	return 1 / iv.Seconds()
}
