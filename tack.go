// Package tack is the public API of the TACK transport: TCP-TACK (Li et
// al., SIGCOMM 2020) as a user-space protocol over UDP, plus the
// deterministic simulators that reproduce the paper's evaluation.
//
// The facade re-exports the stable surface of the internal packages so
// applications depend only on this root package:
//
//	srv, _ := tack.Listen(":7000", tack.EndpointConfig{
//		Transport: tack.Config{Mode: tack.ModeTACK},
//	})
//	for {
//		conn, err := srv.Accept()
//		...
//	}
//
// and on the client side:
//
//	conn, _ := tack.Dial("server:7000", tack.Config{
//		Mode: tack.ModeTACK, TransferBytes: 16 << 20,
//	})
//	err := conn.Wait(0)
//
// Everything else — congestion controllers, the 802.11 MAC model, the
// experiment harness — stays internal; reach it through cmd/tackd,
// cmd/tackbench, or the examples.
package tack

import (
	"io"

	"github.com/tacktp/tack/internal/endpoint"
	"github.com/tacktp/tack/internal/fec"
	"github.com/tacktp/tack/internal/stream"
	"github.com/tacktp/tack/internal/telemetry"
	"github.com/tacktp/tack/internal/transport"
)

// Core transport surface.
type (
	// Mode selects the acknowledgment regime (TACK or legacy TCP-style).
	Mode = transport.Mode
	// Config parameterizes one connection: mode, congestion control,
	// payload sizing, transfer bounds, TACK parameters.
	Config = transport.Config
	// Params are the TACK acknowledgment-frequency parameters
	// (β, L, q, settle fraction) carried in Config.Params.
	Params = transport.Params
	// LossDetection groups the sender's loss-detection knobs carried in
	// Config.Loss: the detector choice and the tail-loss-probe ablation
	// switch.
	LossDetection = transport.LossDetection
	// LossDetector names a loss-detection machinery (DetectorRACK or
	// DetectorDupThresh) in LossDetection.Detector.
	LossDetector = transport.LossDetector
	// SenderStats / ReceiverStats are per-connection counters.
	SenderStats = transport.SenderStats
	// ReceiverStats mirrors SenderStats for the receiving half.
	ReceiverStats = transport.ReceiverStats
	// Sender is the sans-IO sending state machine of a connection.
	Sender = transport.Sender
	// Receiver is the sans-IO receiving state machine of a connection.
	Receiver = transport.Receiver
)

const (
	// ModeTACK is the paper's TCP-TACK.
	ModeTACK = transport.ModeTACK
	// ModeLegacy emulates a legacy TCP acknowledgment regime.
	ModeLegacy = transport.ModeLegacy
)

// Loss detectors accepted by LossDetection.Detector.
const (
	// DetectorRACK is RFC 8985 time-based loss detection with tail loss
	// probes (the default).
	DetectorRACK = transport.DetectorRACK
	// DetectorDupThresh is the A/B baseline against RACK: the TACK
	// receiver's gap reports alone (TACK mode only).
	DetectorDupThresh = transport.DetectorDupThresh
)

// Endpoint surface (multi-connection UDP).
type (
	// Endpoint is a multi-connection UDP endpoint: one socket, many
	// connections demultiplexed by connection id across sharded loops.
	Endpoint = endpoint.Endpoint
	// EndpointConfig parameterizes an Endpoint (transport template,
	// shard count, accept backlog, lifecycle timeouts, and the opt-in
	// EnableMigration knob for QUIC-style path validation of peers whose
	// address changes mid-flow).
	EndpointConfig = endpoint.Config
	// Conn is one connection multiplexed on an Endpoint.
	Conn = endpoint.Conn
)

// Sentinel errors surfaced by endpoint operations.
var (
	ErrClosed           = endpoint.ErrClosed
	ErrHandshakeTimeout = endpoint.ErrHandshakeTimeout
	ErrIdleTimeout      = endpoint.ErrIdleTimeout
	ErrDeadline         = endpoint.ErrDeadline
)

// Stream multiplexing surface. Set Config.Streams to a StreamConfig to
// multiplex many ordered byte streams over one connection, then use
// Conn.OpenStream / Conn.AcceptStream.
type (
	// StreamConfig parameterizes the stream layer of a connection:
	// per-stream receive window, stream-count limit, aggregate send
	// buffer, and scheduler.
	StreamConfig = stream.Config
	// StreamOptions are per-stream scheduling knobs (priority, weight)
	// and the forward-error-correction opt-in, passed to
	// Conn.OpenStreamOptions.
	StreamOptions = stream.Options
	// SendStream is the writable half of one multiplexed stream.
	SendStream = stream.SendStream
	// RecvStream is the readable half of one multiplexed stream.
	RecvStream = stream.RecvStream
	// FECOptions opts a stream into forward error correction
	// (StreamOptions.FEC): scheme, group length, overhead cap, and the
	// adaptive-redundancy switch. Validate() bounds-checks it.
	FECOptions = fec.Options
	// FECScheme names a repair code (FECSchemeXOR or FECSchemeRS).
	FECScheme = fec.Scheme
)

// Scheduler names accepted by StreamConfig.Scheduler.
const (
	// SchedulerRoundRobin cycles writable streams fairly (default).
	SchedulerRoundRobin = stream.SchedulerRoundRobin
	// SchedulerPriority always serves the highest-priority writable stream.
	SchedulerPriority = stream.SchedulerPriority
	// SchedulerWeighted shares bandwidth by per-stream weight (DRR).
	SchedulerWeighted = stream.SchedulerWeighted
)

// FEC schemes accepted by FECOptions.Scheme.
const (
	// FECSchemeXOR is the single-repair parity code: one XOR repair per
	// group recovers any one lost packet. Cheapest; right for low,
	// non-bursty loss.
	FECSchemeXOR = fec.SchemeXOR
	// FECSchemeRS is the Reed-Solomon-style GF(2^8) code: r repairs per
	// group recover any r lost packets. Right for bursty loss.
	FECSchemeRS = fec.SchemeRS
)

// Sentinel errors surfaced by stream operations.
var (
	// ErrStreamsDisabled reports OpenStream/AcceptStream on a connection
	// whose Config.Streams was nil.
	ErrStreamsDisabled = stream.ErrStreamsDisabled
	// ErrTooManyStreams reports OpenStream beyond StreamConfig.MaxStreams.
	ErrTooManyStreams = stream.ErrTooManyStreams
	// ErrStreamTimeout reports an AcceptStream that timed out.
	ErrStreamTimeout = stream.ErrTimeout
)

// DefaultStreamConfig returns the stream layer defaults (round-robin
// scheduler, 256 KiB windows, 256 streams).
func DefaultStreamConfig() StreamConfig { return stream.Default() }

// Telemetry surface.
type (
	// Metrics is a registry of counters, gauges, and histograms populated
	// by the transport, endpoint, and MAC layers.
	Metrics = telemetry.Registry
	// Tracer records qlog-style protocol events.
	Tracer = telemetry.Tracer
)

// NewMetrics builds an empty metrics registry; assign it to
// Config.Metrics before use (on an endpoint, EndpointConfig.Transport's
// registry also holds the endpoint's own instruments).
func NewMetrics() *Metrics { return telemetry.NewRegistry() }

// NewTracer builds an in-memory event tracer; assign it to Config.Tracer.
func NewTracer() *Tracer { return telemetry.New() }

// NewStreamingTracer builds a tracer that writes each event to w as JSON
// lines instead of buffering.
func NewStreamingTracer(w io.Writer) *Tracer { return telemetry.NewStreaming(w) }

// Listen binds a UDP socket and starts a multi-connection endpoint that
// can both Accept inbound connections and Dial outbound ones.
//
// When cfg.DebugAddr is non-empty the endpoint also serves debug HTTP
// routes on that address — /metrics (Prometheus), /debug/tack/conns and
// /debug/pprof/ — until it is closed, creating a metrics registry if
// cfg.Transport.Metrics is nil so the routes are never empty.
func Listen(laddr string, cfg EndpointConfig) (*Endpoint, error) {
	return endpoint.Listen(laddr, cfg)
}

// Dial opens a standalone sending connection to raddr over a private
// ephemeral endpoint (closed automatically when the connection ends).
// Use Endpoint.Dial to multiplex many connections over one socket.
func Dial(raddr string, cfg Config) (*Conn, error) {
	return endpoint.DialAddr(raddr, cfg)
}
