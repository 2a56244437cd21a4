package packet

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// Datagram framing: every datagram the endpoint sends carries a CRC32-C
// (Castagnoli) trailer over the encoded packet, and the read loop verifies
// it before the bytes reach the decoder. UDP's own 16-bit checksum only
// protects the kernel-to-kernel hop; anything that rewrites datagrams in
// userspace (a relay, a buggy middlebox, the chaos proxy) re-sends
// corrupted content under a fresh valid UDP checksum. Without the trailer,
// a single bit flip in a structurally-valid field — a byte sequence
// number, an ack block bound — passes Sane and poisons engine state in
// ways that can stall a transfer permanently (a flipped SEQ places payload
// at the wrong offset while its PKT.SEQ still gets acked, so the real range
// is never retransmitted). The trailer turns that whole failure class into
// a counted drop, and dropped packets are what the protocol's loss
// machinery is built to recover.

// TrailerLen is the size of the CRC32-C trailer on every datagram.
const TrailerLen = 4

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrChecksum reports a datagram whose trailer does not match its content.
var ErrChecksum = errors.New("packet: datagram checksum mismatch")

// AppendDatagram appends p's datagram — its encoding, then the trailer
// over it — to buf. It appends exactly DatagramLen bytes.
func (p *Packet) AppendDatagram(buf []byte) []byte {
	start := len(buf)
	buf = p.AppendMarshal(buf)
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf[start:], crcTable))
}

// DatagramLen returns the bytes p occupies as a UDP payload: its encoding
// plus the trailer.
func (p *Packet) DatagramLen() int { return p.EncodedLen() + TrailerLen }

// DecodeDatagram verifies and strips a received datagram's trailer, then
// decodes the packet into p as DecodeInto does. It returns ErrChecksum when
// the trailer does not match the content, and a decode error when the
// datagram is too short or malformed. On error p is left reset.
func DecodeDatagram(p *Packet, b []byte) error {
	n := len(b) - TrailerLen
	if n < 0 {
		p.Reset()
		return errTruncated
	}
	if binary.BigEndian.Uint32(b[n:]) != crc32.Checksum(b[:n], crcTable) {
		p.Reset()
		return ErrChecksum
	}
	return DecodeInto(p, b[:n])
}

// The datagram budget. A datagram is one UDP payload in a single IP packet
// of at most MTU bytes, and it holds an encoded packet plus the trailer.
// Every size decision is one of the budgets below, derived from the
// codec's own header lengths.
const (
	// MTU is the IP packet size every datagram is sized for: Ethernet's,
	// so a full DATA frame is the paper's 1518 bytes on air.
	MTU = 1500
	// ipUDPHeaderLen is IPv4's and UDP's header.
	ipUDPHeaderLen = 20 + 8
	// MaxDatagram is the largest UDP payload sent, trailer included.
	MaxDatagram = MTU - ipUDPHeaderLen
	// maxEncoded is the largest encoded packet.
	maxEncoded = MaxDatagram - TrailerLen
	// MaxPayload is the payload of a full bulk DATA packet (1427 bytes).
	MaxPayload = maxEncoded - commonHeaderLen - dataFixedLen
	// MaxStreamPayload is the payload of a full stream DATA packet (1415
	// bytes), which carries the stream header too.
	MaxStreamPayload = MaxPayload - streamHeaderLen
	// MaxRepairPayload is the repair symbol of a full REPAIR packet (1436
	// bytes).
	MaxRepairPayload = maxEncoded - commonHeaderLen - repairFixedLen
)

// OverheadEthIPUDP is the Ethernet + IPv4 + UDP framing around a datagram,
// so a path model charges what the paper puts on air (64-byte ACKs,
// 1518-byte data frames).
const OverheadEthIPUDP = 18 + ipUDPHeaderLen

// MaxBlocks returns how many ack blocks fit in one acknowledgment beside
// windows stream-window adverts; the TACK encoder truncates its block
// lists to it (paper §5.1 "limited by MSS"). An ack without adverts holds
// 83.
func MaxBlocks(windows int) int {
	room := maxEncoded - commonHeaderLen - ackHeaderLen - ackFixedLen - streamWindowLen*windows
	return max(room, 0) / ackBlockLen
}
