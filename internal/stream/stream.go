// Package stream implements QUIC-style stream multiplexing over one TACK
// connection: many independent ordered byte streams share a single
// connection-level sequence space, congestion controller, and
// acknowledgment machinery.
//
// The wire unit is the STREAM frame (packet.Packet with HasStream set): a
// contiguous run of one stream's bytes tagged with the stream ID, the
// stream-relative offset, and an optional FIN. Frames still occupy the
// connection-level byte space (PKT.SEQ and SEQ are untouched), so the
// paper's TACK/IACK feedback, receiver-based loss detection, and
// delivery-rate sampling all operate unchanged below this layer. A frame
// carrying StreamFIN occupies len(payload)+1 bytes of connection sequence
// space — the trailing phantom byte carries the end-of-stream marker
// through the retransmission machinery exactly like TCP's FIN bit, so even
// a zero-length FIN frame has a unique, loss-recoverable position in the
// connection stream.
//
// Sending is scheduler-driven: streams with frameable data queue into a
// pluggable Scheduler (round-robin by default; strict-priority and
// weighted deficit-round-robin variants are provided) and the transport
// sender pulls one frame per packet through the pacer.
//
// Flow control is two-level. The connection window (AWND) still bounds
// total unconsumed bytes; in addition every stream has its own window,
// advertised as an absolute byte limit (packet.StreamWindow) that rises as
// the application consumes. Per-stream window exhaustion at the receiver
// is relieved by the paper's window-update IACK (§4.4): releasing half a
// stream window triggers an immediate IACKWindow instead of waiting for
// the next TACK boundary. Advertised limits are validated against bytes
// actually sent — a receiver can never have consumed more than that, so a
// limit beyond sent+initial-window is a misbehaving-receiver signal
// (counted, clamped, never obeyed).
package stream

import (
	"errors"
	"fmt"
)

// Frame is one schedulable unit handed to the transport sender: a run of
// stream bytes plus the FIN marker. Data is freshly allocated per frame
// (the in-process simulator delivers packets by reference, so frame
// payloads must stay immutable after handoff).
type Frame struct {
	// ID is the stream identifier.
	ID uint32
	// Off is the stream-relative byte offset of Data.
	Off uint64
	// Data is the frame payload (owned by the frame; never aliased).
	Data []byte
	// FIN marks the end of the stream immediately after Data.
	FIN bool
	// FEC carries the owning stream's FEC flag so the transport sender can
	// fold the frame into a repair group without a mux round trip.
	FEC bool
}

// WireLen returns the connection-sequence-space footprint of the frame:
// payload bytes plus one phantom byte when FIN is set.
func (f *Frame) WireLen() int {
	n := len(f.Data)
	if f.FIN {
		n++
	}
	return n
}

// Config parameterizes the stream layer of a connection. The zero value is
// invalid (stream multiplexing is opt-in); start from Default().
type Config struct {
	// RecvWindow is the per-stream receive window in bytes: the receiver
	// buffers at most this much unconsumed data per stream, and the
	// advertised per-stream limit trails application consumption by this
	// amount. Must be positive.
	RecvWindow int
	// MaxStreams bounds the number of concurrently live streams in each
	// direction. Frames for streams beyond the limit are dropped (and
	// counted); local Open calls fail. Must be positive.
	MaxStreams int
	// SendBuffer is the per-stream retained-data cap in bytes: Write
	// blocks once this many unacknowledged bytes are buffered. Zero
	// selects DefaultSendBuffer.
	SendBuffer int
	// Scheduler selects the send scheduler: SchedulerRoundRobin (default
	// when empty), SchedulerPriority, or SchedulerWeighted.
	Scheduler string
}

// Scheduler names accepted by Config.Scheduler.
const (
	// SchedulerRoundRobin services ready streams one frame at a time in
	// rotation — the default, fair in frames.
	SchedulerRoundRobin = "rr"
	// SchedulerPriority always services the ready stream with the highest
	// Options.Priority (ties broken by lowest stream ID). Starvation of
	// low priorities is intentional.
	SchedulerPriority = "priority"
	// SchedulerWeighted is deficit-round-robin: bandwidth divides between
	// ready streams proportionally to Options.Weight.
	SchedulerWeighted = "weighted"
)

// Default stream-layer parameters.
const (
	// DefaultRecvWindow is the default per-stream receive window.
	DefaultRecvWindow = 256 << 10
	// DefaultMaxStreams is the default concurrent-stream cap.
	DefaultMaxStreams = 256
	// DefaultSendBuffer is the default per-stream send-buffer cap.
	DefaultSendBuffer = 256 << 10
)

// Default returns the stream configuration the facade recommends:
// round-robin scheduling, 256 KiB windows, 256 streams.
func Default() Config {
	return Config{
		RecvWindow: DefaultRecvWindow,
		MaxStreams: DefaultMaxStreams,
		SendBuffer: DefaultSendBuffer,
		Scheduler:  SchedulerRoundRobin,
	}
}

// Validate rejects nonsensical stream configurations: zero or negative
// windows and stream-count limits are errors (not "use a default") because
// a silently patched-up limit hides real misconfiguration.
func (c Config) Validate() error {
	if c.RecvWindow <= 0 {
		return fmt.Errorf("stream: RecvWindow must be positive, got %d", c.RecvWindow)
	}
	if c.MaxStreams <= 0 {
		return fmt.Errorf("stream: MaxStreams must be positive, got %d", c.MaxStreams)
	}
	if c.SendBuffer < 0 {
		return fmt.Errorf("stream: SendBuffer must be non-negative, got %d", c.SendBuffer)
	}
	switch c.Scheduler {
	case "", SchedulerRoundRobin, SchedulerPriority, SchedulerWeighted:
	default:
		return fmt.Errorf("stream: unknown scheduler %q", c.Scheduler)
	}
	return nil
}

// withDefaults fills optional fields.
func (c Config) withDefaults() Config {
	if c.SendBuffer == 0 {
		c.SendBuffer = DefaultSendBuffer
	}
	if c.Scheduler == "" {
		c.Scheduler = SchedulerRoundRobin
	}
	return c
}

// Options configures one stream at Open time.
type Options struct {
	// Priority orders streams under SchedulerPriority (higher first).
	Priority int
	// Weight sets the stream's bandwidth share under SchedulerWeighted
	// (zero means 1).
	Weight int
	// FEC opts the stream into forward-error-correction: its frames are
	// coded into Reed-Solomon repair groups, sized by internal/fec's
	// adaptive controller under fixed caps, so burst loss recovers without
	// a retransmission round trip (latency-critical streams).
	FEC bool
}

// Stream-layer errors.
var (
	// ErrStreamsDisabled is returned by stream operations on a connection
	// configured without a stream layer.
	ErrStreamsDisabled = errors.New("stream: multiplexing not enabled on this connection")
	// ErrTooManyStreams is returned by Open when MaxStreams streams are
	// already live.
	ErrTooManyStreams = errors.New("stream: too many concurrent streams")
	// ErrClosed is returned by operations on a closed stream or mux.
	ErrClosed = errors.New("stream: closed")
	// ErrTimeout is returned by Accept when its timeout elapses.
	ErrTimeout = errors.New("stream: accept timeout")
)
