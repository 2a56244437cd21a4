// Package fec implements the forward-error-correction stream class: group
// repair coding over STREAM frames so latency-critical streams deliver
// through burst loss with zero retransmission RTTs.
//
// The sender tags each outgoing stream-bearing DATA packet as a source
// symbol of the current group (packet.HasFEC + FECGroup/FECIndex) and
// accumulates it into an Encoder. When the group seals — k symbols, or
// early at a flush boundary — the encoder emits r REPAIR packets, each a
// coded combination of the group's source symbols. The receiver's Decoder
// collects source and repair symbols per group and, once any k of the k+r
// symbols have arrived, reconstructs the missing DATA packets exactly:
// headers and payload, ready to inject into per-stream reassembly as if
// they had arrived off the wire.
//
// Two schemes are supported: SchemeXOR (one parity symbol, repairs any
// single loss per group) and SchemeRS (Reed-Solomon over GF(2^8) via a
// Cauchy matrix, repairs up to r losses per group). A Controller adapts
// the (k, r) geometry online to the observed Gilbert-Elliott loss regime,
// clamped to a configured overhead cap.
//
// The package is sans-IO and deterministic: it moves bytes between
// packet.Packet values and never touches clocks, sockets, or goroutines.
package fec

import (
	"encoding/binary"
	"fmt"

	"github.com/tacktp/tack/internal/packet"
)

// Scheme selects the repair coding discipline.
type Scheme uint8

// Coding schemes. The values are carried on the wire in REPAIR packets
// (packet.Packet.FECScheme), so they are stable protocol constants.
const (
	// SchemeNone disables FEC (the zero value: streams opt in).
	SchemeNone Scheme = 0
	// SchemeXOR sends one parity symbol per group: cheapest, repairs any
	// single loss per group.
	SchemeXOR Scheme = 1
	// SchemeRS sends r Reed-Solomon repair symbols per group: repairs up
	// to r losses per group at r/k overhead.
	SchemeRS Scheme = 2
)

// String returns the scheme's name.
func (s Scheme) String() string {
	switch s {
	case SchemeNone:
		return "none"
	case SchemeXOR:
		return "xor"
	case SchemeRS:
		return "rs"
	default:
		return fmt.Sprintf("Scheme(%d)", uint8(s))
	}
}

// maxSymbols bounds k+r: the Cauchy coordinate space is GF(2^8) minus the
// diagonal, and symbol indices ride in single wire bytes.
const maxSymbols = 255

// Options are the per-stream FEC knobs (stream.Options.FEC, re-exported
// through the tack facade).
type Options struct {
	// Scheme selects the coding discipline; SchemeNone (zero) disables FEC
	// for the stream.
	Scheme Scheme
	// GroupLen is k, the (maximum) number of data symbols per group.
	// Smaller groups repair faster and tolerate denser bursts at higher
	// overhead. Bounds: 1..128.
	GroupLen int
	// MaxOverhead caps the repair redundancy ratio r/k in (0, 1]. The
	// encoder never exceeds it, adaptive or not.
	MaxOverhead float64
	// Adaptive lets the Controller retune (k, r) online from the observed
	// loss rate and burstiness; when false the geometry is static at the
	// configured GroupLen and the overhead cap.
	Adaptive bool
}

// Enabled reports whether the options request FEC at all.
func (o Options) Enabled() bool { return o.Scheme != SchemeNone }

// Validate bounds-checks the options. The zero value (FEC disabled) is
// always valid.
func (o Options) Validate() error {
	if o.Scheme == SchemeNone {
		return nil
	}
	if o.Scheme != SchemeXOR && o.Scheme != SchemeRS {
		return fmt.Errorf("fec: unknown scheme %d", uint8(o.Scheme))
	}
	if o.GroupLen < 1 || o.GroupLen > 128 {
		return fmt.Errorf("fec: GroupLen %d outside 1..128", o.GroupLen)
	}
	if o.MaxOverhead <= 0 || o.MaxOverhead > 1 {
		return fmt.Errorf("fec: MaxOverhead %g outside (0, 1]", o.MaxOverhead)
	}
	// At least one repair symbol must fit under the cap at the configured
	// group length, or the stream could never emit any protection.
	if float64(o.GroupLen)*o.MaxOverhead < 1 {
		return fmt.Errorf("fec: GroupLen %d × MaxOverhead %g grants no repair budget (need ≥ 1)",
			o.GroupLen, o.MaxOverhead)
	}
	return nil
}

// symbolHeaderLen is the serialized per-symbol header: the fields of the
// original DATA packet a recovery must resynthesize — packet number,
// connection-level byte offset, stream ID, stream offset, payload length,
// and flags. Coding runs over header+payload so a recovered symbol is a
// complete packet, not just bytes.
const symbolHeaderLen = 8 + 8 + 4 + 8 + 2 + 1

// MaxSourcePayload is the most stream data a protected DATA packet carries
// (1405 bytes): its repair symbol, header and payload, must fit a full
// REPAIR packet. That binds before the FEC-tagged DATA packet's own budget.
const MaxSourcePayload = packet.MaxRepairPayload - symbolHeaderLen

// Symbol flag bits.
const (
	symFIN       = 1 // connection-level FIN rode on the packet
	symStreamFIN = 2 // last frame of its stream
)

// appendSymbol serializes the recoverable fields of a stream-bearing DATA
// packet as one FEC source symbol.
func appendSymbol(buf []byte, p *packet.Packet) []byte {
	buf = binary.BigEndian.AppendUint64(buf, p.PktSeq)
	buf = binary.BigEndian.AppendUint64(buf, p.Seq)
	buf = binary.BigEndian.AppendUint32(buf, p.StreamID)
	buf = binary.BigEndian.AppendUint64(buf, p.StreamOff)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(p.Payload)))
	var f byte
	if p.FIN {
		f |= symFIN
	}
	if p.StreamFIN {
		f |= symStreamFIN
	}
	buf = append(buf, f)
	return append(buf, p.Payload...)
}

// parseSymbol reconstructs a DATA packet from a recovered symbol. It
// returns false when the symbol is internally inconsistent (declared
// payload longer than the symbol) — possible only when the solve consumed
// corrupted or adversarial inputs, never from honest loss.
func parseSymbol(sym []byte) (*packet.Packet, bool) {
	if len(sym) < symbolHeaderLen {
		return nil, false
	}
	plen := int(binary.BigEndian.Uint16(sym[28:]))
	if symbolHeaderLen+plen > len(sym) {
		return nil, false
	}
	f := sym[30]
	p := &packet.Packet{
		Type:      packet.TypeData,
		PktSeq:    binary.BigEndian.Uint64(sym),
		Seq:       binary.BigEndian.Uint64(sym[8:]),
		HasStream: true,
		StreamID:  binary.BigEndian.Uint32(sym[16:]),
		StreamOff: binary.BigEndian.Uint64(sym[20:]),
		FIN:       f&symFIN != 0,
		StreamFIN: f&symStreamFIN != 0,
		Payload:   append([]byte(nil), sym[symbolHeaderLen:symbolHeaderLen+plen]...),
	}
	return p, true
}
