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
// The code is Reed-Solomon over GF(2^8) via a Cauchy matrix: r repairs
// recover up to r losses per group. A Controller adapts the (k, r)
// geometry online to the observed Gilbert-Elliott loss regime, under the
// fixed caps GroupLen and MaxOverhead.
//
// The package is sans-IO and deterministic: it moves bytes between
// packet.Packet values and never touches clocks, sockets, or goroutines.
package fec

import (
	"encoding/binary"

	"github.com/tacktp/tack/internal/packet"
)

// Scheme is a REPAIR packet's coding scheme (packet.Packet.FECScheme).
type Scheme uint8

// SchemeRS, Reed-Solomon, is the one scheme. Its value is carried on the
// wire, so it is a stable protocol constant; a REPAIR naming any other is
// dropped.
const SchemeRS Scheme = 2

// The geometry caps. GroupLen is k's ceiling, the most data symbols per
// group; MaxOverhead caps the redundancy ratio r/k.
const (
	GroupLen    = 12
	MaxOverhead = 0.18
)

// maxSymbols bounds k+r: the Cauchy coordinate space is GF(2^8) minus the
// diagonal, and symbol indices ride in single wire bytes.
const maxSymbols = 255

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
