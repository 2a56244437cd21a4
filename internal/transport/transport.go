// Package transport implements the reliable transport engine that carries
// the paper's protocol, TCP-TACK, and — as a plug-in — the legacy-TCP
// emulation its evaluation uses as the baseline.
//
// The engine is sans-IO: a Sender and a Receiver are pure event-driven
// state machines attached to a sim.Loop for timers; packets leave through
// an injected output function and arrive through OnPacket. The same state
// machines run over the in-process 802.11/netem simulators (deterministic)
// and over real UDP sockets (internal/endpoint, whose shards each run one
// wall-clock-pinned loop shared by all of their connections).
//
// The engine is TACK. What an acknowledgment carries and means is the one
// thing the two protocols disagree on, and it sits behind one seam per
// connection half — senderScheme and receiverScheme, each picked once, by
// Config.Mode, in NewSender / NewReceiver and from then on only called. The
// TACK implementations are in sender.go and receiver.go next to the state
// they use; the legacy ones are the whole of legacy.go, which no TACK
// connection executes. Everything else (buffers, pacing, RACK-TLP, the
// controller feed, flow control, streams, FEC) is shared. Per scheme
// (paper §5):
//
//	              legacy                      TACK
//	ACK timing    per-packet / delayed /      Eq. 3 balance of byte-counting
//	              byte-counting(L)            and periodic (ackpolicy.TACK)
//	release       cumulative byte ack +       cumulative + PKT.SEQ block
//	              byte-range SACK blocks      lists (acked and unacked)
//	loss          sender-based: RACK-TLP      receiver-based: PKT.SEQ gaps
//	detection     + RTO                       with settle delay → loss IACK,
//	                                          repeated in TACK unacked lists;
//	                                          RACK-TLP + RTO behind them
//	round-trip    ACK echo without delay      receiver min-OWD echo + Δt⋆
//	timing        correction (biased)         correction (paper Fig. 4)
//	rate inputs   sender-computed delivery    receiver-computed delivery
//	              rate from released bytes    rate + ρ synced inside TACKs
//	ack hold      none budgeted               RTTmin/2 on the RTO, RTTmin/4
//	                                          on the RACK deadline
//	sender → rcv  handshake IACK only         RTTmin and oldest-outstanding
//	                                          sync IACKs
package transport

import (
	"fmt"

	"github.com/tacktp/tack/internal/ackpolicy"
	"github.com/tacktp/tack/internal/cc"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/stream"
	"github.com/tacktp/tack/internal/telemetry"
)

// Mode selects the protocol personality.
type Mode int

// Protocol modes.
const (
	// ModeTACK is the paper's TCP-TACK.
	ModeTACK Mode = iota
	// ModeLegacy emulates a legacy TCP: ACK-policy-driven acking with
	// sender-based loss detection and timing.
	ModeLegacy
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeTACK {
		return "tack"
	}
	return "legacy"
}

// DefaultPayload is the data payload size per packet: a full bulk DATA
// datagram fills the 1500-byte IP MTU (packet.MaxPayload, 1427 bytes).
// Stream frames are cut shorter by the stream mux, which knows their
// headers.
const DefaultPayload = packet.MaxPayload

// DefaultMinRTO is what withDefaults fills in for an unset MinRTO. It is
// exported because the endpoint measures a receiver-side stall in minimum
// RTOs, and a restated number would drift.
const DefaultMinRTO = 200 * sim.Millisecond

// defaultHandshakeRTO is what withDefaults fills in for an unset
// HandshakeRTO.
const defaultHandshakeRTO = 250 * sim.Millisecond

// LossDetector selects the sender-side loss detection machinery.
type LossDetector int

// Loss detectors.
const (
	// DetectorRACK is RFC 8985 time-based detection with Tail Loss Probes
	// (the default): a segment is lost once a later-sent segment has been
	// acknowledged and the segment's age exceeds the RACK RTT plus an
	// adaptive reorder window.
	DetectorRACK LossDetector = iota
	// DetectorDupThresh is the A/B baseline without sender-side timers or
	// tail probes: the TACK receiver's gap reports alone (a segment is
	// reported once packets numbered above it have arrived and the settle
	// delay has passed). TACK mode only — a legacy receiver reports no gaps.
	DetectorDupThresh
)

// String names the detector.
func (d LossDetector) String() string {
	if d == DetectorRACK {
		return "rack"
	}
	return "dupthresh"
}

// Config parameterizes a connection pair.
type Config struct {
	// Mode selects TACK or legacy behaviour.
	Mode Mode
	// CC names the congestion controller (default "bbr").
	CC string
	// Params are the TACK mechanism constants (β, L, Q, settle fraction).
	Params Params
	// RichTACK lets TACKs carry as many blocks as fit in the MSS
	// ("TACK-rich"); when false the block budget follows Appendix A from
	// the primary Q ("TACK-poor" when Q==1 and loss is low).
	RichTACK bool
	// AckPolicy overrides the receiver's acknowledgment discipline. Nil
	// selects ackpolicy.NewTACK(β, L) in TACK mode and
	// ackpolicy.NewDelayed(40 ms) in legacy mode.
	AckPolicy ackpolicy.Policy
	// RecvBuf is the receive buffer capacity in bytes (default 32 MiB,
	// emulating an autotuned receive window).
	RecvBuf int
	// TransferBytes ends the stream after this many bytes (0 = unbounded).
	TransferBytes int64
	// AppPaced makes the sender transmit only bytes made available via
	// Sender.AddBytes (a streaming application source, e.g. a video
	// encoder) instead of an always-backlogged stream.
	AppPaced bool
	// DisablePacing reverts to ACK-clocked bursts (ablation).
	DisablePacing bool
	// DisableIACK suppresses loss-event IACKs (Figure 5(a) ablation).
	DisableIACK bool
	// LegacyTiming makes a TACK-mode sender drive control from the
	// uncorrected legacy RTT estimator (Figure 6 ablation: "sampling"
	// timing without the Δt correction).
	LegacyTiming bool
	// Detector picks the sender-side loss detection: DetectorRACK, RACK-TLP
	// (the default; its reorder-window bounds, probe timeout and min-RTT
	// window are the constants in rack.go), or DetectorDupThresh, the
	// TACK-only A/B baseline.
	Detector LossDetector
	// AdaptiveSettle enables dynamic adjustment of the IACK reordering
	// settle delay (the paper's §7 future work): the delay grows when
	// spurious retransmissions appear (duplicates at the receiver, i.e.
	// reordering was mistaken for loss) and decays toward the configured
	// RTTmin/SettleFraction baseline when they stop.
	AdaptiveSettle bool
	// MinRTO / MaxRTO clamp the retransmission timeout (defaults
	// DefaultMinRTO and 60 s).
	MinRTO, MaxRTO sim.Time
	// HandshakeRTO is the first step of HandshakeBackoff, the schedule SYNs
	// and SYNACKs are retransmitted on before any RTT sample exists
	// (default 250 ms) — aggressive relative to the steady-state MinRTO
	// because a lost SYN stalls the whole connection and there is nothing in
	// flight to protect from spurious retransmission. The engines retry
	// until their owner gives up on the handshake.
	HandshakeRTO sim.Time
	// Streams enables stream multiplexing: the sender transmits STREAM
	// frames pulled from a stream.SendMux scheduler instead of one flat
	// bytestream, and the receiver demultiplexes into per-stream reassembly
	// buffers (see internal/stream). Requires ModeTACK and is mutually
	// exclusive with TransferBytes and AppPaced: stream lifetimes replace
	// the connection-level termination knobs. Nil
	// (the default) keeps the single-bytestream behaviour.
	Streams *stream.Config
	// ConnID tags packets (useful when multiplexing flows over one path).
	ConnID uint32
	// Tracer records structured per-event telemetry for this connection
	// half (nil — the default — disables tracing at near-zero cost; see
	// internal/telemetry).
	Tracer *telemetry.Tracer
	// Metrics registers hot-path counters, gauges, and histograms for this
	// connection half (nil disables).
	Metrics *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.CC == "" {
		c.CC = "bbr"
	}
	c.Params = c.Params.withDefaults()
	if c.RecvBuf <= 0 {
		// Default sized for the highest-BDP evaluation point (≈560 Mbit/s
		// at 200 ms RTT needs ~14 MB; give 2 BDP like an autotuned stack).
		c.RecvBuf = 32 << 20
	}
	if c.MinRTO <= 0 {
		c.MinRTO = DefaultMinRTO
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = 60 * sim.Second
	}
	if c.HandshakeRTO <= 0 {
		c.HandshakeRTO = defaultHandshakeRTO
	}
	return c
}

// HandshakeBackoff is the one retransmission schedule of a handshake: how
// long the Sender waits after its SYN, and the Receiver after its SYNACK,
// once they have re-sent it retries times (the endpoint's PATH_CHALLENGE
// keeps the same schedule). HandshakeRTO doubled per retry, clamped to
// MaxRTO, both defaulted.
func (c Config) HandshakeBackoff(retries int) sim.Time {
	c = c.withDefaults()
	rto := c.HandshakeRTO
	for ; retries > 0 && rto < c.MaxRTO; retries-- {
		rto *= 2
	}
	return min(rto, c.MaxRTO)
}

// Validate reports whether the configuration is self-consistent. The zero
// Config is valid (every unset knob has a documented default); Validate
// rejects values that withDefaults would otherwise paper over silently and
// combinations whose semantics contradict each other:
//
//   - negative sizes (TransferBytes, RecvBuf)
//   - negative mechanism constants (β, L, Q, settle fraction)
//   - negative RTO bounds, or MinRTO above MaxRTO when both are set
//   - an unknown loss detector, or DetectorDupThresh in legacy mode (the
//     dup-thresh baseline is the TACK receiver's gap reports; a legacy
//     receiver sends none, so nothing short of the RTO would detect loss)
//   - an unknown protocol Mode or congestion-controller name
//   - AppPaced combined with TransferBytes: a stream has exactly one
//     termination authority — the application feed (AppPaced) or the byte
//     bound — and configuring both leaves completion undefined when the
//     feed stops short of the bound.
//   - Streams outside TACK mode, or combined with TransferBytes or AppPaced
//     (stream lifetimes replace those connection-level knobs), or carrying an invalid stream.Config (zero or negative
//     windows and stream limits are rejected, not defaulted).
//
// NewSender validates implicitly; endpoint constructors validate before
// binding sockets so misconfiguration surfaces as an error, not a stall.
func (c Config) Validate() error {
	if c.Mode != ModeTACK && c.Mode != ModeLegacy {
		return fmt.Errorf("transport: unknown mode %d", int(c.Mode))
	}
	if c.TransferBytes < 0 {
		return fmt.Errorf("transport: negative TransferBytes %d", c.TransferBytes)
	}
	if c.RecvBuf < 0 {
		return fmt.Errorf("transport: negative RecvBuf %d", c.RecvBuf)
	}
	p := c.Params
	if p.Beta < 0 || p.L < 0 || p.Q < 0 || p.SettleFraction < 0 {
		return fmt.Errorf("transport: negative TACK params (beta=%v L=%d Q=%d settle=%v)",
			p.Beta, p.L, p.Q, p.SettleFraction)
	}
	if c.MinRTO < 0 || c.MaxRTO < 0 {
		return fmt.Errorf("transport: negative RTO bound (min=%v max=%v)", c.MinRTO, c.MaxRTO)
	}
	if c.MinRTO > 0 && c.MaxRTO > 0 && c.MinRTO > c.MaxRTO {
		return fmt.Errorf("transport: MinRTO %v above MaxRTO %v", c.MinRTO, c.MaxRTO)
	}
	if c.HandshakeRTO < 0 {
		return fmt.Errorf("transport: negative HandshakeRTO %v", c.HandshakeRTO)
	}
	if c.Detector != DetectorRACK && c.Detector != DetectorDupThresh {
		return fmt.Errorf("transport: unknown loss detector %d", int(c.Detector))
	}
	if c.Mode == ModeLegacy && c.Detector == DetectorDupThresh {
		return fmt.Errorf("transport: DetectorDupThresh requires TACK mode (a legacy receiver reports no gaps)")
	}
	if c.AppPaced && c.TransferBytes > 0 {
		return fmt.Errorf("transport: AppPaced and TransferBytes=%d both set; a stream has one termination authority", c.TransferBytes)
	}
	if c.Streams != nil {
		if c.Mode != ModeTACK {
			return fmt.Errorf("transport: stream multiplexing requires TACK mode, got %s", c.Mode)
		}
		if c.TransferBytes > 0 {
			return fmt.Errorf("transport: Streams and TransferBytes=%d both set; stream FINs own termination", c.TransferBytes)
		}
		if c.AppPaced {
			return fmt.Errorf("transport: Streams and AppPaced both set; stream writes pace the source")
		}
		if err := c.Streams.Validate(); err != nil {
			return fmt.Errorf("transport: %w", err)
		}
	}
	if c.CC != "" {
		if _, err := cc.New(c.CC); err != nil {
			return fmt.Errorf("transport: %w", err)
		}
	}
	return nil
}

// SenderStats aggregates sender-side counters.
type SenderStats struct {
	DataPackets    int   // DATA transmissions, including retransmissions
	DataBytes      int64 // payload bytes transmitted (incl. retransmissions)
	Retransmits    int
	AcksReceived   int
	IACKsReceived  int
	Timeouts       int
	LossEpisodes   int
	BytesAcked     int64
	RTTSyncsSent   int
	SYNRetransmits int // SYNs re-sent under the handshake backoff schedule
	RackMarked     int // segments marked lost by RACK time-based detection
	TLPProbes      int // tail loss probes transmitted
	// FEC accounting: repair groups opened, REPAIR packets and bytes
	// actually transmitted, and repairs evicted from the fill queue
	// before the pacer could flush them.
	FECGroups      int
	FECRepairsSent int
	FECRepairBytes int64
	FECQueueDrops  int
	// AckBytesReceived is the wire size of every ack-bearing packet
	// absorbed (SYNACK/TACK/IACK/FINACK): the sender-side half of the
	// ACK-overhead-per-delivered-MB accounting.
	AckBytesReceived int64
}

// ReceiverStats aggregates receiver-side counters.
type ReceiverStats struct {
	DataPackets    int   // DATA packets received
	DupPackets     int   // packets carrying no new bytes
	BytesDelivered int64 // in-order bytes handed to the application
	TACKsSent      int
	IACKsSent      int
	LossIACKs      int
	WindowIACKs    int
	LossesDetected int
	Overflows      int
	// SYNACKRetransmits counts SYNACKs re-sent under the handshake backoff
	// schedule: nothing but SYNs arrived since the last one.
	SYNACKRetransmits int
	// FEC accounting: repairs received, lost packets reconstructed (and
	// their payload bytes), repairs consumed by a reconstruction, repairs
	// that bought nothing (group complete or duplicate), and malformed or
	// hostile FEC input dropped by the decoder.
	FECRepairsReceived int
	FECRecovered       int
	FECRecoveredBytes  int64
	FECRepairsUsed     int
	FECRepairsWasted   int
	FECDropped         int
	// AckBytesSent is the wire size of every acknowledgment emitted
	// (SYNACK/TACK/IACK/FINACK): the receiver-side half of the
	// ACK-overhead-per-delivered-MB accounting.
	AckBytesSent int64
}

// AcksSent returns the total acknowledgments the receiver emitted.
func (r ReceiverStats) AcksSent() int { return r.TACKsSent + r.IACKsSent }

// Output is the packet egress function a connection half writes to.
type Output func(*packet.Packet)

// iackTrigger maps a wire IACK kind onto the telemetry trigger namespace
// (TrigNone for plain TACKs).
func iackTrigger(k packet.IACKKind) uint8 {
	switch k {
	case packet.IACKLoss:
		return telemetry.TrigLoss
	case packet.IACKWindow:
		return telemetry.TrigWindow
	case packet.IACKRTTSync:
		return telemetry.TrigRTTSync
	case packet.IACKHandshake:
		return telemetry.TrigHandshake
	case packet.IACKKeepalive:
		return telemetry.TrigKeepalive
	default:
		return telemetry.TrigNone
	}
}

// policyTrigger maps an ackpolicy trigger onto the telemetry namespace.
func policyTrigger(t ackpolicy.Trigger) uint8 {
	switch t {
	case ackpolicy.TriggerBytes:
		return telemetry.TrigBytes
	case ackpolicy.TriggerTimer:
		return telemetry.TrigTimer
	case ackpolicy.TriggerTail:
		return telemetry.TrigTail
	default:
		return telemetry.TrigNone
	}
}
