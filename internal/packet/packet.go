// Package packet defines the TACK transport wire format.
//
// A packet has a fixed common header (version, type, connection id, packet
// number, departure timestamp) followed by a type-specific body. The packet
// number (PKT.SEQ, paper §5.1) is carried by every packet and monotonically
// increases with each transmission — retransmissions of the same byte range
// get fresh packet numbers, which is what removes retransmission ambiguity
// and enables receiver-based loss detection.
//
// The endpoint puts the encoding on the wire verbatim, over sockets and in
// the simulator alike.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/tacktp/tack/internal/seqspace"
	"github.com/tacktp/tack/internal/sim"
)

// Version is the wire-format version emitted by this library.
const Version = 1

// Type discriminates packet bodies.
type Type uint8

// Packet types.
const (
	TypeInvalid Type = iota
	TypeSYN          // connection open (client -> server)
	TypeSYNACK       // connection accept (server -> client)
	TypeData         // bytestream segment
	TypeTACK         // periodic / byte-counting Tame ACK
	TypeIACK         // instant, event-driven ACK
	TypeFIN          // sender is done
	TypeFINACK       // FIN acknowledgment
	// TypePathChallenge probes a new peer address during path migration:
	// the endpoint sends it to an unvalidated address carrying a
	// crypto-random token the true owner must echo back.
	TypePathChallenge
	// TypePathResponse echoes a PATH_CHALLENGE token, proving the sender
	// owns (is on-path at) the challenged address.
	TypePathResponse
	// TypeRepair carries one forward-error-correction repair symbol over a
	// group of FEC-tagged DATA packets (internal/fec). Repair packets ride
	// outside the data PKT.SEQ space — they are fire-and-forget fill, never
	// acked, retransmitted, or counted as data loss.
	TypeRepair
)

// String returns the conventional name of the type.
func (t Type) String() string {
	switch t {
	case TypeSYN:
		return "SYN"
	case TypeSYNACK:
		return "SYNACK"
	case TypeData:
		return "DATA"
	case TypeTACK:
		return "TACK"
	case TypeIACK:
		return "IACK"
	case TypeFIN:
		return "FIN"
	case TypeFINACK:
		return "FINACK"
	case TypePathChallenge:
		return "PATH_CHALLENGE"
	case TypePathResponse:
		return "PATH_RESPONSE"
	case TypeRepair:
		return "REPAIR"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// IACKKind identifies the instant event that triggered an IACK (paper §4.4).
type IACKKind uint8

// IACK kinds.
const (
	IACKLoss      IACKKind = iota + 1 // receiver detected missing packets
	IACKWindow                        // abrupt receive-window change (zero / large release)
	IACKRTTSync                       // sender syncs updated RTTmin to receiver
	IACKHandshake                     // completes connection establishment
	IACKKeepalive                     // liveness probe
)

// String returns the kind's name.
func (k IACKKind) String() string {
	switch k {
	case IACKLoss:
		return "loss"
	case IACKWindow:
		return "window"
	case IACKRTTSync:
		return "rttsync"
	case IACKHandshake:
		return "handshake"
	case IACKKeepalive:
		return "keepalive"
	default:
		return fmt.Sprintf("IACKKind(%d)", uint8(k))
	}
}

// AckInfo is the feedback block shared by TACK and IACK bodies.
//
// CumAck / CumPktSeq acknowledge the contiguous prefix; AckedBlocks and
// UnackedBlocks are the paper's "acked list" and "unacked list" over the
// PKT.SEQ space; the delivery/loss fields sync receiver-side transport
// statistics to the sender (paper §4.4 "more information carried in ACKs").
type AckInfo struct {
	// CumAck is the next expected byte offset (all bytes < CumAck received).
	CumAck uint64
	// CumPktSeq is the highest packet number below which every packet's
	// payload has been received (possibly via retransmission).
	CumPktSeq uint64
	// LargestPktSeq is the largest packet number seen so far.
	LargestPktSeq uint64
	// AckSeq numbers the ACKs themselves so the sender can estimate the
	// ACK-path loss rate ρ′ (paper §5.4).
	AckSeq uint64
	// Window is the receiver's available window in bytes (AWND).
	Window uint64
	// AckDelay is Δt⋆: time between receiving the echoed packet and sending
	// this ACK, enabling the sender's explicit RTT correction (paper §4.3).
	AckDelay sim.Time
	// EchoDeparture echoes the departure timestamp t0⋆ of the packet that
	// achieved the minimum one-way delay within the ACK interval (§5.2).
	EchoDeparture sim.Time
	// FirstEchoDeparture echoes the departure timestamp of the *first*
	// pending packet of the ACK interval — what a legacy TCP timestamp
	// echo (RFC 7323 TSecr under delayed ACKs) would carry. The paper's
	// Figure 6(a) contrasts RTT sampling built on this (biased by the full
	// ACK delay) against the corrected estimate built on EchoDeparture+Δt⋆.
	FirstEchoDeparture sim.Time
	// DeliveryRate is the receiver-computed windowed-max delivery rate in
	// bits per second (bw of Eq. 3), zero when unknown.
	DeliveryRate uint64
	// LossRatePermille is the receiver-computed data-path loss rate ρ in
	// 1/1000 units.
	LossRatePermille uint16
	// ReportedThrough is the packet number below which UnackedBlocks is
	// complete: every PKT.SEQ < ReportedThrough that is not inside a listed
	// gap was received. The sender may release those segments even when
	// their acked blocks were crowded out of the budget.
	ReportedThrough uint64
	// AckedBlocks lists contiguous received PKT.SEQ ranges (newest first
	// priority when truncated).
	AckedBlocks []seqspace.Range
	// UnackedBlocks lists PKT.SEQ gaps believed lost (oldest first priority
	// when truncated).
	UnackedBlocks []seqspace.Range
	// StreamWindows carries per-stream flow-control advertisements for the
	// stream multiplexing layer, sorted by ascending stream ID. Each entry
	// raises the absolute byte limit the peer may send on that stream. The
	// sentinel ID InitialWindowID advertises the initial window granted to
	// streams the receiver has not seen yet (sent on the SYNACK).
	StreamWindows []StreamWindow
}

// StreamWindow is one per-stream flow-control advertisement inside an
// AckInfo: the sender of the referenced stream may transmit stream bytes
// with offsets strictly below Limit.
type StreamWindow struct {
	// ID is the stream identifier (or InitialWindowID for the default grant).
	ID uint32
	// Limit is the absolute per-stream byte offset the peer may send up to.
	Limit uint64
}

// InitialWindowID is the pseudo-stream ID whose StreamWindow entry
// advertises the initial flow-control window granted to every
// not-yet-advertised stream.
const InitialWindowID = ^uint32(0)

// Packet is one transport PDU.
type Packet struct {
	Type    Type
	ConnID  uint32
	PktSeq  uint64   // packet number; fresh for every transmission
	SentAt  sim.Time // departure timestamp (sender clock)
	IsProbe bool     // marks bandwidth-probe data (excluded from app goodput)

	// Data fields (TypeData, and initial-data-bearing SYN).
	Seq     uint64 // byte offset of Payload within the stream
	Payload []byte
	Retrans bool // retransmission flag (diagnostics only)
	FIN     bool // last segment of the stream

	// Stream-multiplexing fields (TypeData with HasStream set): the payload
	// is a STREAM frame carrying bytes [StreamOff, StreamOff+len(Payload))
	// of stream StreamID. The connection-level Seq space still covers the
	// bytes (flow ordering, CumAck, loss accounting are unchanged); the
	// stream fields only direct where the payload lands at the receiver.
	HasStream bool
	StreamID  uint32 // stream identifier
	StreamOff uint64 // byte offset of Payload within the stream
	StreamFIN bool   // last frame of stream StreamID
	// OldestPktSeq is the sender's oldest outstanding packet number: every
	// PKT.SEQ below it has either been acknowledged or superseded by a
	// retransmission, so the receiver may discard its loss-tracking state
	// below this floor (holes under it can never fill).
	OldestPktSeq uint64

	// Ack fields (TypeTACK, TypeIACK, TypeSYNACK, TypeFINACK).
	Ack      *AckInfo
	IACK     IACKKind
	RTTMinNS int64 // IACKRTTSync payload: sender's RTTmin estimate in ns
	// AckOldestPktSeq mirrors OldestPktSeq on sender-originated IACKs
	// (state sync, §4.4): it keeps the receiver's loss-state floor fresh
	// even when the data path is momentarily idle or window-starved.
	AckOldestPktSeq uint64

	// Token is the path-validation token (TypePathChallenge /
	// TypePathResponse): a crypto-random 8-byte value a PATH_RESPONSE must
	// echo verbatim from the challenged address to validate it.
	Token uint64

	// FEC fields. A stream-bearing DATA packet with HasFEC set is a source
	// symbol of FEC group FECGroup at position FECIndex; a TypeRepair packet
	// carries one repair symbol for that group in Payload, along with the
	// group geometry (FECGroupLen data symbols, FECRepairCount repair
	// symbols, FECScheme coding discipline) the receiver needs to decode
	// without per-stream configuration.
	HasFEC         bool
	FECGroup       uint32 // FEC group identifier (connection-scoped counter)
	FECIndex       uint8  // symbol position: data index in group, or repair index
	FECGroupLen    uint8  // TypeRepair: k, number of data symbols in the group
	FECRepairCount uint8  // TypeRepair: r, number of repair symbols for the group
	FECScheme      uint8  // TypeRepair: coding scheme (internal/fec Scheme values)

	// spareAck parks AckInfo storage across Reset/DecodeInto cycles while
	// the packet carries no feedback block, so a pooled Packet alternating
	// between data and ack datagrams stays allocation-free.
	spareAck *AckInfo
}

// Reset clears p for reuse while retaining its Payload, AckInfo, and
// ack-block storage, so a subsequent DecodeInto can decode without
// allocating.
func (p *Packet) Reset() {
	payload := p.Payload[:0]
	spare := p.Ack
	if spare == nil {
		spare = p.spareAck
	}
	if spare != nil {
		acked, unacked := spare.AckedBlocks[:0], spare.UnackedBlocks[:0]
		windows := spare.StreamWindows[:0]
		*spare = AckInfo{AckedBlocks: acked, UnackedBlocks: unacked, StreamWindows: windows}
	}
	*p = Packet{Payload: payload, spareAck: spare}
}

// OverheadEthIPUDP approximates the Ethernet + IPv4 + UDP framing around a
// datagram, so a path model charges what the paper puts on air (64-byte
// ACKs, 1518-byte data frames).
const OverheadEthIPUDP = 18 + 20 + 8

const commonHeaderLen = 1 + 1 + 4 + 8 + 8 // version, type, connid, pktseq, sentat

// ackFixedLen is the encoded size of AckInfo minus variable blocks (the
// trailing three bytes count acked blocks, unacked blocks, and stream
// windows).
const ackFixedLen = 8 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 2 + 1 + 1 + 1

// streamHeaderLen is the extra DATA-body length when HasStream is set
// (stream ID + stream offset).
const streamHeaderLen = 4 + 8

// streamWindowLen is the encoded size of one StreamWindow entry.
const streamWindowLen = 4 + 8

// fecTagLen is the extra DATA-body length when HasFEC is set (FEC group id
// + symbol index).
const fecTagLen = 4 + 1

// repairFixedLen is the fixed REPAIR-body length: group id, group length k,
// repair count r, repair index, scheme, payload length.
const repairFixedLen = 4 + 1 + 1 + 1 + 1 + 2

// EncodedLen returns the body+header length of the transport PDU in bytes
// (excluding Ethernet/IP/UDP framing).
func (p *Packet) EncodedLen() int {
	n := commonHeaderLen
	switch p.Type {
	case TypeData, TypeSYN:
		n += 8 + 8 + 2 + 1 + len(p.Payload) // seq, oldest, paylen, flags
		if p.HasStream {
			n += streamHeaderLen
		}
		if p.HasFEC {
			n += fecTagLen
		}
	case TypeTACK, TypeIACK, TypeSYNACK, TypeFINACK:
		n += 1 + 8 + 8 + 1 // iack kind, rttmin, oldest, has-ack marker
		if p.Ack != nil {
			n += ackFixedLen + 16*(len(p.Ack.AckedBlocks)+len(p.Ack.UnackedBlocks)) +
				streamWindowLen*len(p.Ack.StreamWindows)
		}
	case TypeFIN:
		n += 8 // final seq
	case TypePathChallenge, TypePathResponse:
		n += 8 // validation token
	case TypeRepair:
		n += repairFixedLen + len(p.Payload)
	}
	return n
}

// errTruncated is returned when a buffer is too short for the declared
// structure.
var errTruncated = errors.New("packet: truncated")

// AppendMarshal appends the packet's wire encoding to buf and returns the
// extended slice. It appends exactly EncodedLen bytes; a caller that
// provides that much spare capacity gets an allocation-free encode.
func (p *Packet) AppendMarshal(buf []byte) []byte {
	buf = append(buf, Version, byte(p.Type))
	buf = binary.BigEndian.AppendUint32(buf, p.ConnID)
	buf = binary.BigEndian.AppendUint64(buf, p.PktSeq)
	buf = binary.BigEndian.AppendUint64(buf, uint64(p.SentAt))
	switch p.Type {
	case TypeData, TypeSYN:
		buf = binary.BigEndian.AppendUint64(buf, p.Seq)
		buf = binary.BigEndian.AppendUint64(buf, p.OldestPktSeq)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(p.Payload)))
		buf = append(buf, p.flags())
		if p.HasStream {
			buf = binary.BigEndian.AppendUint32(buf, p.StreamID)
			buf = binary.BigEndian.AppendUint64(buf, p.StreamOff)
		}
		if p.HasFEC {
			buf = binary.BigEndian.AppendUint32(buf, p.FECGroup)
			buf = append(buf, p.FECIndex)
		}
		buf = append(buf, p.Payload...)
	case TypeTACK, TypeIACK, TypeSYNACK, TypeFINACK:
		buf = append(buf, byte(p.IACK))
		buf = binary.BigEndian.AppendUint64(buf, uint64(p.RTTMinNS))
		buf = binary.BigEndian.AppendUint64(buf, p.AckOldestPktSeq)
		if p.Ack == nil {
			buf = append(buf, 0)
		} else {
			buf = append(buf, 1)
			buf = p.Ack.marshal(buf)
		}
	case TypeFIN:
		buf = binary.BigEndian.AppendUint64(buf, p.Seq)
	case TypePathChallenge, TypePathResponse:
		buf = binary.BigEndian.AppendUint64(buf, p.Token)
	case TypeRepair:
		buf = binary.BigEndian.AppendUint32(buf, p.FECGroup)
		buf = append(buf, p.FECGroupLen, p.FECRepairCount, p.FECIndex, p.FECScheme)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(p.Payload)))
		buf = append(buf, p.Payload...)
	}
	return buf
}

func (p *Packet) flags() byte {
	var f byte
	if p.Retrans {
		f |= 1
	}
	if p.FIN {
		f |= 2
	}
	if p.IsProbe {
		f |= 4
	}
	if p.HasStream {
		f |= 8
	}
	if p.StreamFIN {
		f |= 16
	}
	if p.HasFEC {
		f |= 32
	}
	return f
}

func (a *AckInfo) marshal(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, a.CumAck)
	buf = binary.BigEndian.AppendUint64(buf, a.CumPktSeq)
	buf = binary.BigEndian.AppendUint64(buf, a.LargestPktSeq)
	buf = binary.BigEndian.AppendUint64(buf, a.AckSeq)
	buf = binary.BigEndian.AppendUint64(buf, a.Window)
	buf = binary.BigEndian.AppendUint64(buf, uint64(a.AckDelay))
	buf = binary.BigEndian.AppendUint64(buf, uint64(a.EchoDeparture))
	buf = binary.BigEndian.AppendUint64(buf, uint64(a.FirstEchoDeparture))
	buf = binary.BigEndian.AppendUint64(buf, a.DeliveryRate)
	buf = binary.BigEndian.AppendUint64(buf, a.ReportedThrough)
	buf = binary.BigEndian.AppendUint16(buf, a.LossRatePermille)
	buf = append(buf, byte(len(a.AckedBlocks)), byte(len(a.UnackedBlocks)), byte(len(a.StreamWindows)))
	for _, r := range a.AckedBlocks {
		buf = binary.BigEndian.AppendUint64(buf, r.Lo)
		buf = binary.BigEndian.AppendUint64(buf, r.Hi)
	}
	for _, r := range a.UnackedBlocks {
		buf = binary.BigEndian.AppendUint64(buf, r.Lo)
		buf = binary.BigEndian.AppendUint64(buf, r.Hi)
	}
	for _, w := range a.StreamWindows {
		buf = binary.BigEndian.AppendUint32(buf, w.ID)
		buf = binary.BigEndian.AppendUint64(buf, w.Limit)
	}
	return buf
}

// DecodeInto decodes a packet from wire bytes into the caller-owned p,
// reusing p's payload, AckInfo, and ack-block storage where capacity
// allows. The decoded packet owns copies of everything it references —
// buf may be reused immediately. On error p is left reset.
func DecodeInto(p *Packet, buf []byte) error {
	p.Reset()
	if len(buf) < commonHeaderLen {
		return errTruncated
	}
	if buf[0] != Version {
		return fmt.Errorf("packet: unknown version %d", buf[0])
	}
	p.Type = Type(buf[1])
	p.ConnID = binary.BigEndian.Uint32(buf[2:])
	p.PktSeq = binary.BigEndian.Uint64(buf[6:])
	p.SentAt = sim.Time(binary.BigEndian.Uint64(buf[14:]))
	body := buf[commonHeaderLen:]
	switch p.Type {
	case TypeData, TypeSYN:
		if len(body) < 19 {
			p.Reset()
			return errTruncated
		}
		p.Seq = binary.BigEndian.Uint64(body)
		p.OldestPktSeq = binary.BigEndian.Uint64(body[8:])
		plen := int(binary.BigEndian.Uint16(body[16:]))
		f := body[18]
		p.Retrans = f&1 != 0
		p.FIN = f&2 != 0
		p.IsProbe = f&4 != 0
		p.HasStream = f&8 != 0
		p.StreamFIN = f&16 != 0
		p.HasFEC = f&32 != 0
		body = body[19:]
		if p.HasStream {
			if len(body) < streamHeaderLen {
				p.Reset()
				return errTruncated
			}
			p.StreamID = binary.BigEndian.Uint32(body)
			p.StreamOff = binary.BigEndian.Uint64(body[4:])
			body = body[streamHeaderLen:]
		}
		if p.HasFEC {
			if len(body) < fecTagLen {
				p.Reset()
				return errTruncated
			}
			p.FECGroup = binary.BigEndian.Uint32(body)
			p.FECIndex = body[4]
			body = body[fecTagLen:]
		}
		if len(body) < plen {
			p.Reset()
			return errTruncated
		}
		p.Payload = append(p.Payload[:0], body[:plen]...)
	case TypeTACK, TypeIACK, TypeSYNACK, TypeFINACK:
		if len(body) < 18 {
			p.Reset()
			return errTruncated
		}
		p.IACK = IACKKind(body[0])
		p.RTTMinNS = int64(binary.BigEndian.Uint64(body[1:]))
		p.AckOldestPktSeq = binary.BigEndian.Uint64(body[9:])
		has := body[17]
		body = body[18:]
		if has == 1 {
			a := p.spareAck
			if a == nil {
				a = &AckInfo{}
			}
			if err := a.decodeInto(body); err != nil {
				p.Reset()
				return err
			}
			p.Ack, p.spareAck = a, nil
		}
	case TypeFIN:
		if len(body) < 8 {
			p.Reset()
			return errTruncated
		}
		p.Seq = binary.BigEndian.Uint64(body)
	case TypePathChallenge, TypePathResponse:
		if len(body) < 8 {
			p.Reset()
			return errTruncated
		}
		p.Token = binary.BigEndian.Uint64(body)
	case TypeRepair:
		if len(body) < repairFixedLen {
			p.Reset()
			return errTruncated
		}
		p.FECGroup = binary.BigEndian.Uint32(body)
		p.FECGroupLen = body[4]
		p.FECRepairCount = body[5]
		p.FECIndex = body[6]
		p.FECScheme = body[7]
		plen := int(binary.BigEndian.Uint16(body[8:]))
		body = body[repairFixedLen:]
		if len(body) < plen {
			p.Reset()
			return errTruncated
		}
		p.Payload = append(p.Payload[:0], body[:plen]...)
	default:
		err := fmt.Errorf("packet: unknown type %d", buf[1])
		p.Reset()
		return err
	}
	return nil
}

// decodeInto decodes a feedback block into a, reusing its block-slice
// capacity. a must arrive zeroed apart from retained storage (Reset does
// this).
func (a *AckInfo) decodeInto(body []byte) error {
	if len(body) < ackFixedLen {
		return errTruncated
	}
	a.CumAck = binary.BigEndian.Uint64(body)
	a.CumPktSeq = binary.BigEndian.Uint64(body[8:])
	a.LargestPktSeq = binary.BigEndian.Uint64(body[16:])
	a.AckSeq = binary.BigEndian.Uint64(body[24:])
	a.Window = binary.BigEndian.Uint64(body[32:])
	a.AckDelay = sim.Time(binary.BigEndian.Uint64(body[40:]))
	a.EchoDeparture = sim.Time(binary.BigEndian.Uint64(body[48:]))
	a.FirstEchoDeparture = sim.Time(binary.BigEndian.Uint64(body[56:]))
	a.DeliveryRate = binary.BigEndian.Uint64(body[64:])
	a.ReportedThrough = binary.BigEndian.Uint64(body[72:])
	a.LossRatePermille = binary.BigEndian.Uint16(body[80:])
	nAcked, nUnacked, nWindows := int(body[82]), int(body[83]), int(body[84])
	body = body[ackFixedLen:]
	if len(body) < 16*(nAcked+nUnacked)+streamWindowLen*nWindows {
		return errTruncated
	}
	for i := 0; i < nAcked; i++ {
		a.AckedBlocks = append(a.AckedBlocks, seqspace.Range{
			Lo: binary.BigEndian.Uint64(body),
			Hi: binary.BigEndian.Uint64(body[8:]),
		})
		body = body[16:]
	}
	for i := 0; i < nUnacked; i++ {
		a.UnackedBlocks = append(a.UnackedBlocks, seqspace.Range{
			Lo: binary.BigEndian.Uint64(body),
			Hi: binary.BigEndian.Uint64(body[8:]),
		})
		body = body[16:]
	}
	for i := 0; i < nWindows; i++ {
		a.StreamWindows = append(a.StreamWindows, StreamWindow{
			ID:    binary.BigEndian.Uint32(body),
			Limit: binary.BigEndian.Uint64(body[4:]),
		})
		body = body[streamWindowLen:]
	}
	return nil
}

// MaxBlocks returns how many 16-byte blocks fit in an ACK without the frame
// exceeding mss bytes on the wire; the TACK encoder truncates block lists to
// this budget (paper §5.1 "limited by MSS").
func MaxBlocks(mss int) int {
	budget := mss - commonHeaderLen - 10 - ackFixedLen - OverheadEthIPUDP
	if budget < 0 {
		return 0
	}
	n := budget / 16
	if n > 255 {
		n = 255 // block counts are single bytes on the wire
	}
	return n
}

// errInsane is the base error for Sane failures.
var errInsane = errors.New("packet: insane field")

// Sane performs structural sanity validation on a decoded packet, catching
// in-flight corruption that survives DecodeInto's framing checks (a flipped
// bit in a count, sequence, or timestamp field still parses). It verifies
// internal consistency only — invariants any honest sender upholds — so a
// legitimate packet never fails, while a corrupted one is rejected before
// its fields can poison RTT estimation, loss accounting, or retransmission
// state. It deliberately is not a checksum: corruption confined to payload
// bytes is indistinguishable from valid data at this layer. Content
// integrity belongs to the framing around the codec — the endpoint wraps
// every datagram in a CRC32-C trailer, and the in-sim link drops corrupted
// frames outright (FCS semantics) — leaving Sane as the defense against
// hostile-but-well-framed input.
func (p *Packet) Sane() error {
	if p.SentAt < 0 {
		return fmt.Errorf("%w: negative departure timestamp", errInsane)
	}
	switch p.Type {
	case TypeData, TypeSYN:
		if p.Seq+uint64(len(p.Payload)) < p.Seq {
			return fmt.Errorf("%w: byte range wraps uint64", errInsane)
		}
		if p.HasStream && p.StreamOff+uint64(len(p.Payload)) < p.StreamOff {
			return fmt.Errorf("%w: stream byte range wraps uint64", errInsane)
		}
		if p.StreamFIN && !p.HasStream {
			return fmt.Errorf("%w: StreamFIN without stream frame", errInsane)
		}
		// FEC source symbols are always stream frames: recovery synthesizes
		// a STREAM frame, so a non-stream FEC tag is structurally bogus.
		if p.HasFEC && !p.HasStream {
			return fmt.Errorf("%w: FEC tag without stream frame", errInsane)
		}
		// The sender's oldest outstanding packet can never exceed the
		// packet number it just minted.
		if p.OldestPktSeq > p.PktSeq+1 {
			return fmt.Errorf("%w: OldestPktSeq %d beyond PktSeq %d", errInsane, p.OldestPktSeq, p.PktSeq)
		}
	case TypeTACK, TypeIACK, TypeSYNACK, TypeFINACK:
		if p.IACK > IACKKeepalive {
			return fmt.Errorf("%w: unknown IACK kind %d", errInsane, p.IACK)
		}
		if a := p.Ack; a != nil {
			if err := a.sane(); err != nil {
				return err
			}
		}
	case TypeRepair:
		// Honest encoders emit k≥1 data symbols, r≥1 repair symbols, a
		// repair index inside [0, r), and a group small enough for GF(2^8)
		// coding (k+r ≤ 255 distinct symbol coordinates).
		if p.FECGroupLen == 0 || p.FECRepairCount == 0 {
			return fmt.Errorf("%w: empty FEC group geometry k=%d r=%d", errInsane, p.FECGroupLen, p.FECRepairCount)
		}
		if p.FECIndex >= p.FECRepairCount {
			return fmt.Errorf("%w: repair index %d beyond repair count %d", errInsane, p.FECIndex, p.FECRepairCount)
		}
		if int(p.FECGroupLen)+int(p.FECRepairCount) > 255 {
			return fmt.Errorf("%w: FEC group k+r=%d exceeds GF(256) coordinates", errInsane, int(p.FECGroupLen)+int(p.FECRepairCount))
		}
		if p.FECScheme == 0 {
			return fmt.Errorf("%w: zero FEC scheme", errInsane)
		}
	}
	return nil
}

// sane validates the internal consistency of a feedback block.
func (a *AckInfo) sane() error {
	// The contiguous frontier and the completeness frontier can reach at
	// most one past the largest packet number seen.
	if a.CumPktSeq > a.LargestPktSeq+1 {
		return fmt.Errorf("%w: CumPktSeq %d beyond LargestPktSeq %d", errInsane, a.CumPktSeq, a.LargestPktSeq)
	}
	if a.ReportedThrough > a.LargestPktSeq+1 {
		return fmt.Errorf("%w: ReportedThrough %d beyond LargestPktSeq %d", errInsane, a.ReportedThrough, a.LargestPktSeq)
	}
	if a.AckDelay < 0 || a.EchoDeparture < 0 || a.FirstEchoDeparture < 0 {
		return fmt.Errorf("%w: negative timing field", errInsane)
	}
	if a.LossRatePermille > 1000 {
		return fmt.Errorf("%w: loss rate %d‰ exceeds 1000", errInsane, a.LossRatePermille)
	}
	// An ack naming no packet number (LargestPktSeq 0, the wire's "none
	// yet") is a legacy ack, whose blocks are SACK byte ranges: only the
	// sender, which knows what it sent and in which scheme, can bound
	// those (transport's Sender.AcksUnsent).
	for _, blocks := range [2][]seqspace.Range{a.AckedBlocks, a.UnackedBlocks} {
		prev := uint64(0)
		for _, r := range blocks {
			if r.Hi <= r.Lo {
				return fmt.Errorf("%w: empty/inverted block %v", errInsane, r)
			}
			if r.Lo < prev {
				return fmt.Errorf("%w: blocks out of order at %v", errInsane, r)
			}
			if a.LargestPktSeq != 0 && r.Hi > a.LargestPktSeq+1 {
				return fmt.Errorf("%w: block %v beyond LargestPktSeq %d", errInsane, r, a.LargestPktSeq)
			}
			prev = r.Hi
		}
	}
	// Honest encoders emit stream windows sorted by ascending stream ID
	// (the InitialWindowID sentinel, being the maximum, sorts last), with
	// no duplicates.
	for i, w := range a.StreamWindows {
		if i > 0 && w.ID <= a.StreamWindows[i-1].ID {
			return fmt.Errorf("%w: stream windows out of order at id %d", errInsane, w.ID)
		}
	}
	return nil
}
