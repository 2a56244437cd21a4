package buffer

import "github.com/tacktp/tack/internal/seqspace"

// ReceiveBuffer reassembles the bytestream at the receiver and tracks
// head-of-line blocking: bytes that have arrived but cannot be delivered to
// the application because an earlier byte is missing.
type ReceiveBuffer struct {
	capacity  int               // receive-buffer size in bytes (AWND base)
	nextRead  uint64            // first byte the application has not consumed
	received  seqspace.RangeSet // byte ranges present at or above nextRead
	delivered uint64            // total bytes handed to the application
	finSeq    uint64            // end-of-stream byte offset
	finKnown  bool
}

// NewReceiveBuffer returns a reassembly buffer with the given capacity in
// bytes. Capacity bounds the advertised window.
func NewReceiveBuffer(capacity int) *ReceiveBuffer {
	return &ReceiveBuffer{capacity: capacity}
}

// Offer inserts the byte range [seq, seq+n). It returns the number of new
// (not previously received, not already consumed) bytes accepted. Data
// beyond the buffer capacity is refused (returns accepted=0, overflow=true)
// — a well-behaved sender respects AWND so overflow indicates misbehaviour.
func (b *ReceiveBuffer) Offer(seq uint64, n int) (accepted int, overflow bool) {
	if n == 0 {
		return 0, false
	}
	end := seq + uint64(n)
	if end <= b.nextRead {
		return 0, false // entirely old data (spurious retransmission)
	}
	if seq < b.nextRead {
		seq = b.nextRead
	}
	if end > b.nextRead+uint64(b.capacity) {
		return 0, true
	}
	before := b.received.Count()
	b.received.Add(seq, end)
	return int(b.received.Count() - before), false
}

// OnFIN records the end-of-stream offset.
func (b *ReceiveBuffer) OnFIN(finSeq uint64) {
	b.finSeq = finSeq
	b.finKnown = true
}

// NextExpected returns the lowest missing byte offset — the cumulative ACK
// point.
func (b *ReceiveBuffer) NextExpected() uint64 {
	return b.received.ContiguousFrom(b.nextRead)
}

// Readable returns the number of in-order bytes ready for the application.
func (b *ReceiveBuffer) Readable() int { return int(b.NextExpected() - b.nextRead) }

// Read consumes up to n in-order bytes, returning how many were consumed.
func (b *ReceiveBuffer) Read(n int) int {
	avail := b.Readable()
	if n > avail {
		n = avail
	}
	if n <= 0 {
		return 0
	}
	b.received.Remove(b.nextRead, b.nextRead+uint64(n))
	b.nextRead += uint64(n)
	b.delivered += uint64(n)
	return n
}

// BlockedBytes returns the bytes buffered above the first hole — the
// head-of-line-blocked volume that paper Figure 5(a) reports. In-order
// bytes awaiting application read are not blocked.
func (b *ReceiveBuffer) BlockedBytes() int {
	next := b.NextExpected()
	var blocked uint64
	for _, r := range b.received.Ranges() {
		if r.Lo >= next {
			blocked += r.Len()
		}
	}
	return int(blocked)
}

// Window returns the advertised window in bytes: capacity minus everything
// buffered (readable or blocked).
func (b *ReceiveBuffer) Window() uint64 {
	used := int(b.received.Count())
	if used >= b.capacity {
		return 0
	}
	return uint64(b.capacity - used)
}

// Delivered returns total bytes consumed by the application.
func (b *ReceiveBuffer) Delivered() uint64 { return b.delivered }

// Complete reports whether the whole stream (through FIN) was consumed.
func (b *ReceiveBuffer) Complete() bool {
	return b.finKnown && b.nextRead >= b.finSeq
}

// RangesView returns the buffered ranges without copying (read-only,
// valid until the next mutation).
func (b *ReceiveBuffer) RangesView() []seqspace.Range { return b.received.View() }

// HasHoles reports whether any out-of-order data is buffered (i.e. a SACK
// block would be advertised). O(1).
func (b *ReceiveBuffer) HasHoles() bool {
	switch b.received.NumRanges() {
	case 0:
		return false
	case 1:
		min, _ := b.received.Min()
		return min != b.nextRead
	default:
		return true
	}
}
