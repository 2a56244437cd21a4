package fec

import (
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/sim"
)

// Encoder accumulates the source symbols of one FEC group and produces its
// repair symbols. It keeps r running accumulators — one per repair — so
// source packets are folded in as they are sent and never stored: group
// memory is r × max-symbol-length regardless of k.
//
// The accumulator storage is retained across groups, so a long-lived
// stream encoder settles into zero steady-state allocation on the Add
// path; only Seal allocates (the repair payloads it hands off).
type Encoder struct {
	k, r   int
	group  uint32
	n      int // source symbols folded in so far
	maxLen int // longest serialized symbol in this group
	acc    [][]byte
	sym    []byte // serialization scratch, reused
}

// Begin starts a new group with the given identifier and geometry. Any
// unsealed previous group is discarded. Geometry must satisfy k ≥ 1,
// r ≥ 1, k+r ≤ 255 (the Controller's always does). The scheme is
// SchemeRS, the only one.
func (e *Encoder) Begin(group uint32, _ Scheme, k, r int) {
	e.k, e.r = k, r
	e.group = group
	e.n, e.maxLen = 0, 0
	if cap(e.acc) < r {
		e.acc = append(e.acc[:cap(e.acc)], make([][]byte, r-cap(e.acc))...)
	}
	e.acc = e.acc[:r]
	for j := range e.acc {
		e.acc[j] = e.acc[j][:0]
	}
}

// Group returns the current group identifier.
func (e *Encoder) Group() uint32 { return e.group }

// Len returns the number of source symbols folded into the current group.
func (e *Encoder) Len() int { return e.n }

// Full reports whether the group has reached its configured k.
func (e *Encoder) Full() bool { return e.n >= e.k }

// Add folds a stream-bearing DATA packet into the group as its next source
// symbol and returns the symbol index the packet must carry on the wire
// (packet.FECIndex). The packet is serialized header+payload; shorter
// symbols are implicitly zero-padded to the group maximum, which coding
// over GF(2^8) makes free (scaled zeros contribute nothing).
func (e *Encoder) Add(p *packet.Packet) int {
	e.sym = appendSymbol(e.sym[:0], p)
	if len(e.sym) > e.maxLen {
		e.maxLen = len(e.sym)
	}
	for j := range e.acc {
		// Grow this accumulator to the symbol length with explicit zeros
		// before folding (append may hand back dirty capacity).
		for len(e.acc[j]) < len(e.sym) {
			e.acc[j] = append(e.acc[j], 0)
		}
		addScaled(e.acc[j], e.sym, coeff(j, e.n))
	}
	idx := e.n
	e.n++
	return idx
}

// Seal closes the group and emits its repair packets, one per repair
// symbol, stamped with the actual group geometry (k = symbols folded in —
// a group sealed early carries its true length, and the length-independent
// Cauchy coefficients keep the code consistent). When the group sealed
// early the repair count is scaled down proportionally so a short tail
// group cannot blow the overhead cap. An empty group emits nothing.
// After Seal the encoder is empty until the next Begin.
func (e *Encoder) Seal(now sim.Time, connID uint32, emit func(*packet.Packet)) {
	if e.n == 0 {
		return
	}
	r := e.r
	if e.n < e.k {
		// Proportional repair budget for the short group, at least one.
		r = max((e.n*e.r+e.k-1)/e.k, 1)
	}
	for j := 0; j < r; j++ {
		emit(&packet.Packet{
			Type:           packet.TypeRepair,
			ConnID:         connID,
			SentAt:         now,
			FECGroup:       e.group,
			FECGroupLen:    uint8(e.n),
			FECRepairCount: uint8(r),
			FECIndex:       uint8(j),
			FECScheme:      uint8(SchemeRS),
			Payload:        append([]byte(nil), e.acc[j][:e.maxLen]...),
		})
	}
	e.n, e.maxLen = 0, 0
	for j := range e.acc {
		e.acc[j] = e.acc[j][:0]
	}
}
