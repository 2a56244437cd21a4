// Package telemetry provides structured, allocation-conscious flow
// observability for the TACK stack: a qlog-style typed event log and a
// metrics registry with cheap atomic hot-path updates.
//
// The design follows the QUIC ecosystem's qlog practice: every
// behaviourally significant protocol event — a DATA transmission, a
// TACK/IACK emission with its trigger, a loss declaration with its
// detection latency, a congestion-controller update, a MAC-level collision
// — is recorded as one flat, fixed-size Event carrying both the simulation
// clock and (when available) the wall clock, and exported as JSON Lines
// for offline analysis (cmd/tacktrace).
//
// Instrumentation is opt-in and nil-safe: every Tracer method is a no-op
// on a nil receiver, and a nil Registry hands out nil Counters/Gauges
// whose update methods are likewise no-ops. Un-instrumented runs therefore
// pay a nil check per emission point and zero allocations (asserted by
// BenchmarkNoopTracer / TestNoopPathAllocations).
package telemetry

import (
	"io"
	"sync"
	"time"

	"github.com/tacktp/tack/internal/sim"
)

// Kind discriminates event types.
type Kind uint8

// Event kinds. The per-kind meaning of the generic Event fields is
// documented on each constant and summarized in DESIGN.md ("Observability").
const (
	// KindUnknown is the zero Kind; decoded events with unrecognized names
	// carry it.
	KindUnknown Kind = iota
	// KindFlowParams records the flow's TACK constants once per flow:
	// Trigger=mode (0 TACK, 1 legacy), Seq=β, PktSeq=L, Len=payload bytes,
	// Aux=settle fraction.
	KindFlowParams
	// KindDataSent records a DATA transmission: Trigger=1 for a
	// retransmission, Seq=byte offset, PktSeq=packet number, Len=payload
	// bytes, Aux=oldest outstanding packet number.
	KindDataSent
	// KindAckSent records a receiver acknowledgment emission:
	// Trigger=acknowledgment trigger (Trig*), Seq=cumulative ack byte,
	// PktSeq=largest packet number seen, Len=unacked blocks carried,
	// Aux=current RTTmin in ns, Value=synced delivery rate (bit/s).
	KindAckSent
	// KindAckReceived records sender-side acknowledgment processing:
	// Trigger=IACK trigger (TrigNone for a TACK), Seq=cumulative ack byte,
	// PktSeq=largest acknowledged packet number, Len=newly acked bytes,
	// Aux=RTT sample in ns (0 if none), Value=delivery-rate input (bit/s).
	KindAckReceived
	// KindLossDeclared records one settled loss range at the receiver:
	// PktSeq=range lo, Aux=range hi, Len=packets in the range,
	// Value=detection latency in seconds (gap observed → declared).
	KindLossDeclared
	// KindLossEpisode records the sender entering a loss episode:
	// Trigger=1 for RTO-driven, Len=bytes declared lost, Aux=inflight bytes.
	KindLossEpisode
	// KindRTOFired records a retransmission timeout: Len=inflight bytes,
	// Aux=backoff exponent.
	KindRTOFired
	// KindCCUpdate records a congestion-controller output change:
	// Trigger=1 when caused by a loss event, Len=cwnd bytes,
	// Value=pacing rate (bit/s).
	KindCCUpdate
	// KindRTTSync records a sender→receiver state sync IACK:
	// Trigger=IACK trigger, PktSeq=oldest outstanding packet number,
	// Aux=RTTmin in ns, Value=ACK-path loss rate ρ′.
	KindRTTSync
	// KindRateSample records a receiver delivery-rate interval closing:
	// Len=interval bytes, Aux=interval ns, Value=interval rate (bit/s).
	KindRateSample
	// KindMACTx records a successful medium acquisition: Flow=station
	// index, PktSeq=frames aggregated, Len=MSDU bytes, Aux=airtime ns,
	// Value=backoff slots waited.
	KindMACTx
	// KindMACCollision records a collision: Flow=station index of one
	// collider, PktSeq=number of colliding stations, Aux=wasted airtime ns,
	// Value=backoff slots waited.
	KindMACCollision
	// KindMACDrop records a frame drop: Flow=station index,
	// Trigger=TrigQueueFull or TrigRetryLimit, Len=frame bytes.
	KindMACDrop

	// KindMigrationRejected records the endpoint demux dropping a packet
	// whose source address differs from the connection's bound peer (NAT
	// rebinding / roam) when path migration is disabled, or after a
	// challenge for that address failed or timed out:
	// Flow=ConnID, PktSeq=arriving packet number, Len=datagram bytes.
	KindMigrationRejected

	// KindStreamOpened records a stream coming into existence at either
	// end of the multiplexing layer: Flow=ConnID, Seq=stream ID,
	// Trigger=0 for a locally opened stream, 1 for one created by a
	// remote frame (accept side).
	KindStreamOpened
	// KindStreamClosed records a stream finishing cleanly (FIN sent and
	// acknowledged at the sender; FIN consumed at the receiver):
	// Flow=ConnID, Seq=stream ID, Len=total stream bytes.
	KindStreamClosed
	// KindStreamWindow records a per-stream flow-control advertisement
	// leaving the receiver: Flow=ConnID, Seq=stream ID, Aux=advertised
	// absolute byte limit, Trigger=TrigWindow when the advert rode a
	// window-update IACK (urgent release), TrigNone when it piggybacked
	// on a regular acknowledgment.
	KindStreamWindow

	// KindLossMarked records the sender marking one segment lost, with the
	// detector attributed in Trigger (TrigDetRACK / TrigDetDupThresh /
	// TrigDetRTO): Seq=byte offset, PktSeq=the transmission the mark
	// applies to, Len=segment bytes, Aux=reorder window ns (RACK only),
	// Value=detection latency in seconds (mark time − last transmission).
	KindLossMarked
	// KindTLPProbe records a tail loss probe transmission: PktSeq=the
	// probe's fresh packet number, Seq=probed byte offset, Len=segment
	// bytes, Aux=the probe timeout that fired (ns).
	KindTLPProbe

	// KindAnomaly records an endpoint anomaly detector firing on a
	// connection (and is the last event written into a flight-recorder
	// post-mortem dump): Flow=ConnID, Trigger=anomaly class (TrigStall,
	// TrigRetxStorm, TrigWndExhaust, TrigMigStorm), Len=bytes in flight
	// at detection, Aux=class detail (stall: ns since last progress;
	// retx storm: retransmissions in the window; window exhaustion: ns
	// spent blocked; migration storm: rejects in the window).
	KindAnomaly

	// KindPathChallenge records the endpoint sending a PATH_CHALLENGE to
	// an unvalidated candidate peer address during path migration:
	// Flow=ConnID, Seq=challenge (re)send ordinal within the probing
	// episode, Len=challenge bytes on the wire.
	KindPathChallenge
	// KindPathResponse records a matching PATH_RESPONSE arriving from the
	// challenged address: Flow=ConnID, Len=datagram bytes.
	KindPathResponse
	// KindMigrationCompleted records a validated path migration — the
	// connection's peer address switched to the challenged address and the
	// congestion state was reset: Flow=ConnID, Seq=challenges sent during
	// the probing episode, Aux=probing duration ns.
	KindMigrationCompleted

	// KindFECRepairSent records a REPAIR symbol leaving the sender:
	// Flow=ConnID, Seq=FEC group id, PktSeq=repair index within the group,
	// Len=repair payload bytes, Aux=group length k, Value=current
	// redundancy ratio r/k.
	KindFECRepairSent
	// KindFECRecovered records the receiver reconstructing a lost DATA
	// packet from repair symbols: Flow=ConnID, Seq=FEC group id, PktSeq=the
	// recovered packet number, Len=recovered payload bytes, Aux=stream ID.
	KindFECRecovered
	// KindFECRepairWasted records a repair symbol that bought nothing — its
	// group was already fully received, or it duplicated an earlier repair:
	// Flow=ConnID, Seq=FEC group id, Len=repair payload bytes.
	KindFECRepairWasted

	numKinds
)

var kindNames = [numKinds]string{
	KindUnknown:      "unknown",
	KindFlowParams:   "flow_params",
	KindDataSent:     "data_sent",
	KindAckSent:      "ack_sent",
	KindAckReceived:  "ack_recv",
	KindLossDeclared: "loss_declared",
	KindLossEpisode:  "loss_episode",
	KindRTOFired:     "rto_fired",
	KindCCUpdate:     "cc_update",
	KindRTTSync:      "rtt_sync",
	KindRateSample:   "rate_sample",
	KindMACTx:        "mac_tx",
	KindMACCollision: "mac_collision",
	KindMACDrop:      "mac_drop",

	KindMigrationRejected: "migration_rejected",

	KindStreamOpened: "stream_opened",
	KindStreamClosed: "stream_closed",
	KindStreamWindow: "stream_window",

	KindLossMarked: "loss_marked",
	KindTLPProbe:   "tlp_probe",

	KindAnomaly: "anomaly",

	KindPathChallenge:      "path_challenge",
	KindPathResponse:       "path_response",
	KindMigrationCompleted: "migration_completed",

	KindFECRepairSent:   "fec_repair_sent",
	KindFECRecovered:    "fec_recovered",
	KindFECRepairWasted: "fec_repair_wasted",
}

// String returns the event name used on the wire (JSONL "ev" field).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindByName resolves a wire name back to its Kind (KindUnknown when the
// name is not recognized, so decoders tolerate forward-compatible traces).
func KindByName(name string) Kind {
	for k, n := range kindNames {
		if n == name {
			return Kind(k)
		}
	}
	return KindUnknown
}

// Trigger values. KindAckSent uses the acknowledgment triggers; KindMACDrop
// uses the MAC drop causes; KindAckReceived / KindRTTSync use the IACK
// triggers with TrigNone denoting a plain TACK.
const (
	// TrigNone marks an event with no specific trigger (e.g. a TACK).
	TrigNone uint8 = iota
	// TrigBytes: the byte-counting condition (L·MSS pending) fired the ack.
	TrigBytes
	// TrigTimer: the periodic boundary (α = RTTmin/β) fired the ack.
	TrigTimer
	// TrigTail: the bounded tail delay fired the ack for a sub-threshold
	// tail.
	TrigTail
	// TrigFIN: FIN-bearing data forced an immediate ack.
	TrigFIN
	// TrigLoss: a loss-event IACK.
	TrigLoss
	// TrigWindow: an abrupt receive-window change IACK.
	TrigWindow
	// TrigRTTSync: a sender RTTmin/oldest-outstanding sync IACK.
	TrigRTTSync
	// TrigHandshake: the handshake-completing IACK.
	TrigHandshake
	// TrigKeepalive: a liveness probe IACK.
	TrigKeepalive
	// TrigRetrans marks KindDataSent retransmissions.
	TrigRetrans
	// TrigQueueFull / TrigRetryLimit are the KindMACDrop causes.
	TrigQueueFull
	TrigRetryLimit

	// Anomaly classes (KindAnomaly triggers), fired by the endpoint's
	// shard-loop detectors.

	// TrigStall: data in flight but no cumulative-ack progress for more
	// than N×RTO (sender) or no datagrams at all on an incomplete
	// receiver for the equivalent span.
	TrigStall
	// TrigRetxStorm: retransmission rate over a rolling window crossed
	// the storm threshold.
	TrigRetxStorm
	// TrigWndExhaust: the usable send window (min of cwnd and the peer's
	// advertised window, minus flight) stayed exhausted with data queued
	// for longer than the persistence threshold.
	TrigWndExhaust
	// TrigMigStorm: repeated migration rejects (NAT rebind / roam) for
	// one connection within the detection window.
	TrigMigStorm

	// Loss-detector attribution (KindLossMarked triggers): which machinery
	// concluded the segment was lost.

	// TrigDetRACK: RFC 8985 time-based detection (a later-sent segment was
	// acked and the reorder window elapsed).
	TrigDetRACK
	// TrigDetDupThresh: duplicate-threshold detection — the legacy FACK
	// byte-threshold scan, or TACK-mode receiver-reported unacked ranges.
	TrigDetDupThresh
	// TrigDetRTO: the retransmission timeout declared the segment lost.
	TrigDetRTO
)

var triggerNames = [...]string{
	TrigNone:         "none",
	TrigBytes:        "bytes",
	TrigTimer:        "timer",
	TrigTail:         "tail",
	TrigFIN:          "fin",
	TrigLoss:         "loss",
	TrigWindow:       "window",
	TrigRTTSync:      "rttsync",
	TrigHandshake:    "handshake",
	TrigKeepalive:    "keepalive",
	TrigRetrans:      "retrans",
	TrigQueueFull:    "queuefull",
	TrigRetryLimit:   "retrylimit",
	TrigStall:        "stall",
	TrigRetxStorm:    "retx_storm",
	TrigWndExhaust:   "wnd_exhaust",
	TrigMigStorm:     "mig_storm",
	TrigDetRACK:      "rack",
	TrigDetDupThresh: "dupthresh",
	TrigDetRTO:       "rto",
}

// TriggerName renders a trigger value ("none" for the zero value).
func TriggerName(t uint8) string {
	if int(t) < len(triggerNames) {
		return triggerNames[t]
	}
	return "unknown"
}

// Event is one flat trace record. Field semantics depend on Kind (see the
// Kind constants); unused fields stay zero and are omitted from the JSONL
// encoding. The struct deliberately contains no pointers, strings, or
// slices so recording is a single copy.
type Event struct {
	// Sim is the virtual (simulation) timestamp.
	Sim sim.Time
	// Wall is the wall-clock timestamp in Unix nanoseconds (0 when the
	// tracer has no wall clock, e.g. deterministic test runs).
	Wall int64
	// Kind discriminates the event.
	Kind Kind
	// Flow identifies the connection (transport events) or station index
	// (MAC events).
	Flow uint32
	// Trigger is the kind-specific cause discriminator.
	Trigger uint8
	// Seq is a byte-space sequence field.
	Seq uint64
	// PktSeq is a packet-number-space field.
	PktSeq uint64
	// Len is a byte (or block) count.
	Len int64
	// Aux is a kind-specific auxiliary integer (often nanoseconds).
	Aux uint64
	// Value is a kind-specific float (often a rate in bit/s).
	Value float64
}

// Tracer records Events. All methods are safe on a nil *Tracer (no-ops),
// which is the un-instrumented default throughout the stack. A Tracer is
// safe for concurrent use (the UDP runner's reader goroutine and metrics
// snapshots may race protocol callbacks).
type Tracer struct {
	mu      sync.Mutex
	events  []Event
	retain  bool // append to events (in-memory tracers only)
	wallNow func() int64

	// Streaming sink (optional): events are encoded and written as they
	// are recorded instead of being retained in memory. After the first
	// write error the sink is considered dead: later events are counted
	// as dropped without being encoded.
	w       io.Writer
	scratch []byte
	werr    error
	dropCtr *Counter

	// Flight-recorder sink (optional): events are copied into ring, then
	// forwarded to fwd (which may be nil).
	ring *Ring
	fwd  *Tracer
}

// New returns an in-memory tracer. Recorded events are retained and
// available via Events. The wall clock defaults to time.Now;
// use SetWallClock(nil) for deterministic traces.
func New() *Tracer {
	return &Tracer{retain: true, wallNow: func() int64 { return time.Now().UnixNano() }}
}

// NewStreaming returns a tracer that encodes each event to w as a JSONL
// line at record time (constant memory; suited to long runs). Call Err
// after the run to check for sink write failures; events emitted after a
// write error are dropped (see CountDrops) rather than
// encoded into the dead writer.
func NewStreaming(w io.Writer) *Tracer {
	t := New()
	t.retain = false
	t.w = w
	t.scratch = make([]byte, 0, 256)
	return t
}

// WithRing returns a tracer that records every event into ring and then
// forwards it to next (which may be nil for ring-only capture). The ring
// tracer retains nothing itself, so steady-state recording allocates
// nothing; it is how the endpoint gives each connection an always-on
// flight recorder in front of whatever tracer the application supplied.
func WithRing(ring *Ring, next *Tracer) *Tracer {
	return &Tracer{ring: ring, fwd: next,
		wallNow: func() int64 { return time.Now().UnixNano() }}
}

// SetWallClock replaces the wall-clock source; nil disables wall-clock
// stamping (events carry Wall=0), which keeps simulated traces fully
// deterministic.
func (t *Tracer) SetWallClock(now func() int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.wallNow = now
	t.mu.Unlock()
}

// Emit records one event, stamping the wall clock. Nil-safe.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.wallNow != nil {
		e.Wall = t.wallNow()
	}
	t.ring.Put(&e)
	switch {
	case t.w != nil:
		if t.werr != nil {
			// The sink already failed: do not encode into a dead
			// writer, just account for the loss.
			t.dropCtr.Inc()
		} else {
			t.scratch = AppendEvent(t.scratch[:0], &e)
			if _, err := t.w.Write(t.scratch); err != nil {
				t.werr = err
				t.dropCtr.Inc()
			}
		}
	case t.retain:
		t.events = append(t.events, e)
	}
	fwd := t.fwd
	t.mu.Unlock()
	fwd.Emit(e)
}

// Err returns the first streaming-sink write error, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.werr
}

// CountDrops mirrors dropped-event accounting into c (conventionally
// Registry.Counter("telemetry.dropped_events")), so a dead trace sink is
// visible on the metrics plane.
func (t *Tracer) CountDrops(c *Counter) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.dropCtr = c
	t.mu.Unlock()
}

// Events returns a copy of the recorded events (empty for streaming
// tracers).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// --- Typed emission helpers (the instrumentation points call these). ---

// FlowParams records the flow's acknowledgment constants (once per flow).
func (t *Tracer) FlowParams(now sim.Time, flow uint32, legacy bool, beta, l, payload, settleFraction int) {
	if t == nil {
		return
	}
	var mode uint8
	if legacy {
		mode = 1
	}
	t.Emit(Event{Sim: now, Kind: KindFlowParams, Flow: flow, Trigger: mode,
		Seq: uint64(beta), PktSeq: uint64(l), Len: int64(payload), Aux: uint64(settleFraction)})
}

// DataSent records a DATA (re)transmission.
func (t *Tracer) DataSent(now sim.Time, flow uint32, seq, pktSeq uint64, n int, retrans bool, oldest uint64) {
	if t == nil {
		return
	}
	var trig uint8
	if retrans {
		trig = TrigRetrans
	}
	t.Emit(Event{Sim: now, Kind: KindDataSent, Flow: flow, Trigger: trig,
		Seq: seq, PktSeq: pktSeq, Len: int64(n), Aux: oldest})
}

// AckSent records a receiver acknowledgment emission.
func (t *Tracer) AckSent(now sim.Time, flow uint32, trigger uint8, cumAck, largestPkt uint64, unackedBlocks int, rttMin sim.Time, deliveryBps float64) {
	if t == nil {
		return
	}
	t.Emit(Event{Sim: now, Kind: KindAckSent, Flow: flow, Trigger: trigger,
		Seq: cumAck, PktSeq: largestPkt, Len: int64(unackedBlocks),
		Aux: uint64(rttMin), Value: deliveryBps})
}

// AckReceived records sender-side acknowledgment processing.
func (t *Tracer) AckReceived(now sim.Time, flow uint32, trigger uint8, cumAck, largestPkt uint64, ackedBytes int64, rtt sim.Time, deliveryBps float64) {
	if t == nil {
		return
	}
	t.Emit(Event{Sim: now, Kind: KindAckReceived, Flow: flow, Trigger: trigger,
		Seq: cumAck, PktSeq: largestPkt, Len: ackedBytes,
		Aux: uint64(rtt), Value: deliveryBps})
}

// LossDeclared records one settled loss range with its detection latency.
func (t *Tracer) LossDeclared(now sim.Time, flow uint32, lo, hi uint64, latency sim.Time) {
	if t == nil {
		return
	}
	t.Emit(Event{Sim: now, Kind: KindLossDeclared, Flow: flow,
		PktSeq: lo, Aux: hi, Len: int64(hi - lo), Value: latency.Seconds()})
}

// LossMarked records the sender marking one segment lost, attributed to a
// detector (TrigDetRACK / TrigDetDupThresh / TrigDetRTO). reoWnd is the
// RACK reorder window applied (0 for other detectors); latency is mark time
// minus the segment's last transmission.
func (t *Tracer) LossMarked(now sim.Time, flow uint32, detector uint8, seq, pktSeq uint64, n int, reoWnd, latency sim.Time) {
	if t == nil {
		return
	}
	t.Emit(Event{Sim: now, Kind: KindLossMarked, Flow: flow, Trigger: detector,
		Seq: seq, PktSeq: pktSeq, Len: int64(n), Aux: uint64(reoWnd), Value: latency.Seconds()})
}

// TLPProbe records a tail loss probe transmission: the highest-sequence
// unacked segment re-sent as pktSeq after probe timeout pto elapsed with no
// acknowledgment.
func (t *Tracer) TLPProbe(now sim.Time, flow uint32, seq, pktSeq uint64, n int, pto sim.Time) {
	if t == nil {
		return
	}
	t.Emit(Event{Sim: now, Kind: KindTLPProbe, Flow: flow,
		Seq: seq, PktSeq: pktSeq, Len: int64(n), Aux: uint64(pto)})
}

// LossEpisode records the sender entering a loss episode.
func (t *Tracer) LossEpisode(now sim.Time, flow uint32, lostBytes, inflight int, timeout bool) {
	if t == nil {
		return
	}
	var trig uint8
	if timeout {
		trig = 1
	}
	t.Emit(Event{Sim: now, Kind: KindLossEpisode, Flow: flow, Trigger: trig,
		Len: int64(lostBytes), Aux: uint64(inflight)})
}

// RTOFired records a retransmission timeout.
func (t *Tracer) RTOFired(now sim.Time, flow uint32, inflight, backoff int) {
	if t == nil {
		return
	}
	t.Emit(Event{Sim: now, Kind: KindRTOFired, Flow: flow,
		Len: int64(inflight), Aux: uint64(backoff)})
}

// CCUpdate records a congestion-controller output change.
func (t *Tracer) CCUpdate(now sim.Time, flow uint32, cwnd int, pacingBps float64, onLoss bool) {
	if t == nil {
		return
	}
	var trig uint8
	if onLoss {
		trig = 1
	}
	t.Emit(Event{Sim: now, Kind: KindCCUpdate, Flow: flow, Trigger: trig,
		Len: int64(cwnd), Value: pacingBps})
}

// RTTSync records a sender→receiver state sync.
func (t *Tracer) RTTSync(now sim.Time, flow uint32, trigger uint8, oldestPkt uint64, rttMin sim.Time, ackLossRate float64) {
	if t == nil {
		return
	}
	t.Emit(Event{Sim: now, Kind: KindRTTSync, Flow: flow, Trigger: trigger,
		PktSeq: oldestPkt, Aux: uint64(rttMin), Value: ackLossRate})
}

// RateSample records a closed delivery-rate measurement interval.
func (t *Tracer) RateSample(now sim.Time, flow uint32, intervalBytes int64, interval sim.Time, bps float64) {
	if t == nil {
		return
	}
	t.Emit(Event{Sim: now, Kind: KindRateSample, Flow: flow,
		Len: intervalBytes, Aux: uint64(interval), Value: bps})
}

// MACTx records a successful medium acquisition.
func (t *Tracer) MACTx(now sim.Time, station uint32, frames, bytes int, airtime sim.Time, slots int) {
	if t == nil {
		return
	}
	t.Emit(Event{Sim: now, Kind: KindMACTx, Flow: station,
		PktSeq: uint64(frames), Len: int64(bytes), Aux: uint64(airtime), Value: float64(slots)})
}

// MACCollision records a collision involving stations colliders.
func (t *Tracer) MACCollision(now sim.Time, station uint32, colliders int, waste sim.Time, slots int) {
	if t == nil {
		return
	}
	t.Emit(Event{Sim: now, Kind: KindMACCollision, Flow: station,
		PktSeq: uint64(colliders), Aux: uint64(waste), Value: float64(slots)})
}

// MACDrop records a dropped frame.
func (t *Tracer) MACDrop(now sim.Time, station uint32, cause uint8, bytes int) {
	if t == nil {
		return
	}
	t.Emit(Event{Sim: now, Kind: KindMACDrop, Flow: station, Trigger: cause,
		Len: int64(bytes)})
}

// MigrationRejected records the demux rejecting a packet that arrived for
// an established connection from the wrong source address.
func (t *Tracer) MigrationRejected(now sim.Time, flow uint32, pktSeq uint64, bytes int) {
	if t == nil {
		return
	}
	t.Emit(Event{Sim: now, Kind: KindMigrationRejected, Flow: flow,
		PktSeq: pktSeq, Len: int64(bytes)})
}

// PathChallenge records a PATH_CHALLENGE (re)transmission to an
// unvalidated candidate address: attempt is the challenge ordinal within
// the probing episode (0 for the first send).
func (t *Tracer) PathChallenge(now sim.Time, flow uint32, attempt, bytes int) {
	if t == nil {
		return
	}
	t.Emit(Event{Sim: now, Kind: KindPathChallenge, Flow: flow,
		Seq: uint64(attempt), Len: int64(bytes)})
}

// PathResponse records a PATH_RESPONSE with the correct token arriving
// from the challenged address.
func (t *Tracer) PathResponse(now sim.Time, flow uint32, bytes int) {
	if t == nil {
		return
	}
	t.Emit(Event{Sim: now, Kind: KindPathResponse, Flow: flow, Len: int64(bytes)})
}

// MigrationCompleted records a validated path migration: challenges is how
// many PATH_CHALLENGEs the probing episode sent, elapsed how long
// validation took from the first foreign packet.
func (t *Tracer) MigrationCompleted(now sim.Time, flow uint32, challenges int, elapsed sim.Time) {
	if t == nil {
		return
	}
	t.Emit(Event{Sim: now, Kind: KindMigrationCompleted, Flow: flow,
		Seq: uint64(challenges), Aux: uint64(elapsed)})
}

// StreamOpened records a stream coming into existence (remote=true when a
// peer frame created it).
func (t *Tracer) StreamOpened(now sim.Time, flow uint32, streamID uint32, remote bool) {
	if t == nil {
		return
	}
	var trig uint8
	if remote {
		trig = 1
	}
	t.Emit(Event{Sim: now, Kind: KindStreamOpened, Flow: flow, Trigger: trig,
		Seq: uint64(streamID)})
}

// StreamClosed records a stream completing cleanly with its total byte
// count.
func (t *Tracer) StreamClosed(now sim.Time, flow uint32, streamID uint32, bytes uint64) {
	if t == nil {
		return
	}
	t.Emit(Event{Sim: now, Kind: KindStreamClosed, Flow: flow,
		Seq: uint64(streamID), Len: int64(bytes)})
}

// StreamWindow records a per-stream flow-control advertisement (urgent=true
// when it rode a window-update IACK).
func (t *Tracer) StreamWindow(now sim.Time, flow uint32, streamID uint32, limit uint64, urgent bool) {
	if t == nil {
		return
	}
	trig := TrigNone
	if urgent {
		trig = TrigWindow
	}
	t.Emit(Event{Sim: now, Kind: KindStreamWindow, Flow: flow, Trigger: trig,
		Seq: uint64(streamID), Aux: limit})
}

// FECRepairSent records a repair symbol transmission for group with the
// given index and payload size; k is the group's data-symbol count and
// ratio the redundancy ratio in force.
func (t *Tracer) FECRepairSent(now sim.Time, flow uint32, group uint32, idx, bytes, k int, ratio float64) {
	if t == nil {
		return
	}
	t.Emit(Event{Sim: now, Kind: KindFECRepairSent, Flow: flow,
		Seq: uint64(group), PktSeq: uint64(idx), Len: int64(bytes), Aux: uint64(k), Value: ratio})
}

// FECRecovered records the receiver reconstructing packet pktSeq of the
// given group from repair symbols, carrying bytes payload bytes of stream
// streamID.
func (t *Tracer) FECRecovered(now sim.Time, flow uint32, group uint32, pktSeq uint64, bytes int, streamID uint32) {
	if t == nil {
		return
	}
	t.Emit(Event{Sim: now, Kind: KindFECRecovered, Flow: flow,
		Seq: uint64(group), PktSeq: pktSeq, Len: int64(bytes), Aux: uint64(streamID)})
}

// FECRepairWasted records a repair arriving for a group that needed no
// repair (fully received or duplicate).
func (t *Tracer) FECRepairWasted(now sim.Time, flow uint32, group uint32, bytes int) {
	if t == nil {
		return
	}
	t.Emit(Event{Sim: now, Kind: KindFECRepairWasted, Flow: flow,
		Seq: uint64(group), Len: int64(bytes)})
}

// Anomaly records an endpoint anomaly detector firing: class is one of
// the anomaly triggers (TrigStall, TrigRetxStorm, TrigWndExhaust,
// TrigMigStorm), inflight the bytes in flight at detection, and detail
// the class-specific magnitude (see KindAnomaly).
func (t *Tracer) Anomaly(now sim.Time, flow uint32, class uint8, inflight int, detail uint64) {
	if t == nil {
		return
	}
	t.Emit(Event{Sim: now, Kind: KindAnomaly, Flow: flow, Trigger: class,
		Len: int64(inflight), Aux: detail})
}
