// Package seqspace implements sequence-number interval sets.
//
// TACK feedback (paper §5.1) is built on two lists over the PKT.SEQ space:
// the "acked list" (blocks of contiguous packets received and queued at the
// receiver) and the "unacked list" (the gaps between them). RangeSet is the
// underlying ordered interval set, shared by the receiver's reassembly
// tracking, the TACK encoder, and the sender's retransmission bookkeeping.
package seqspace

import (
	"fmt"
	"sort"
	"strings"
)

// Range is the half-open interval [Lo, Hi) of sequence numbers.
type Range struct {
	Lo, Hi uint64
}

// Len returns the number of values covered.
func (r Range) Len() uint64 {
	if r.Hi <= r.Lo {
		return 0
	}
	return r.Hi - r.Lo
}

// Contains reports whether v lies in [Lo, Hi).
func (r Range) Contains(v uint64) bool { return v >= r.Lo && v < r.Hi }

// String renders [lo,hi).
func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

// RangeSet is an ordered set of disjoint, non-adjacent ranges. The zero
// value is an empty, ready-to-use set.
type RangeSet struct {
	// ranges are sorted by Lo; invariant: ranges[i].Hi < ranges[i+1].Lo
	// (strictly, because adjacent ranges are merged).
	ranges []Range
}

// Add inserts [lo, hi) into the set, merging overlapping or adjacent ranges.
// Empty input is a no-op.
func (s *RangeSet) Add(lo, hi uint64) {
	if hi <= lo {
		return
	}
	// Find the first range whose Hi >= lo (candidate for merging).
	i := sort.Search(len(s.ranges), func(i int) bool { return s.ranges[i].Hi >= lo })
	j := i
	nlo, nhi := lo, hi
	for j < len(s.ranges) && s.ranges[j].Lo <= hi {
		if s.ranges[j].Lo < nlo {
			nlo = s.ranges[j].Lo
		}
		if s.ranges[j].Hi > nhi {
			nhi = s.ranges[j].Hi
		}
		j++
	}
	if i == j {
		s.ranges = append(s.ranges, Range{})
		copy(s.ranges[i+1:], s.ranges[i:])
		s.ranges[i] = Range{Lo: nlo, Hi: nhi}
		return
	}
	s.ranges[i] = Range{Lo: nlo, Hi: nhi}
	s.ranges = append(s.ranges[:i+1], s.ranges[j:]...)
}

// AddValue inserts the single value v.
func (s *RangeSet) AddValue(v uint64) { s.Add(v, v+1) }

// AddRange inserts r.
func (s *RangeSet) AddRange(r Range) { s.Add(r.Lo, r.Hi) }

// Remove deletes [lo, hi) from the set, splitting ranges as needed. The
// operation is in place: the common transport case (consuming a prefix of
// the first range) allocates nothing.
func (s *RangeSet) Remove(lo, hi uint64) {
	if hi <= lo || len(s.ranges) == 0 {
		return
	}
	n := len(s.ranges)
	// First range intersecting [lo, hi).
	i := sort.Search(n, func(i int) bool { return s.ranges[i].Hi > lo })
	if i == n || s.ranges[i].Lo >= hi {
		return
	}
	// j is one past the last intersecting range.
	j := i
	for j < n && s.ranges[j].Lo < hi {
		j++
	}
	var head, tail Range
	hasHead := s.ranges[i].Lo < lo
	hasTail := s.ranges[j-1].Hi > hi
	if hasHead {
		head = Range{Lo: s.ranges[i].Lo, Hi: lo}
	}
	if hasTail {
		tail = Range{Lo: hi, Hi: s.ranges[j-1].Hi}
	}
	if i+1 == j && hasHead && hasTail {
		// Split inside one range: one insertion.
		s.ranges[i] = head
		s.ranges = append(s.ranges, Range{})
		copy(s.ranges[i+2:], s.ranges[i+1:])
		s.ranges[i+1] = tail
		return
	}
	out := s.ranges[:i]
	if hasHead {
		out = append(out, head)
	}
	if hasTail {
		out = append(out, tail)
	}
	out = append(out, s.ranges[j:]...)
	s.ranges = out
}

// RemoveBelow deletes every value < cut. Used to discard fully-acknowledged
// prefix state.
func (s *RangeSet) RemoveBelow(cut uint64) {
	if cut == 0 {
		return
	}
	s.Remove(0, cut)
}

// Contains reports whether v is in the set.
func (s *RangeSet) Contains(v uint64) bool {
	i := sort.Search(len(s.ranges), func(i int) bool { return s.ranges[i].Hi > v })
	return i < len(s.ranges) && s.ranges[i].Contains(v)
}

// ContainsRange reports whether all of [lo, hi) is in the set.
func (s *RangeSet) ContainsRange(lo, hi uint64) bool {
	if hi <= lo {
		return true
	}
	i := sort.Search(len(s.ranges), func(i int) bool { return s.ranges[i].Hi > lo })
	return i < len(s.ranges) && s.ranges[i].Lo <= lo && s.ranges[i].Hi >= hi
}

// Count returns the total number of values covered.
func (s *RangeSet) Count() uint64 {
	var n uint64
	for _, r := range s.ranges {
		n += r.Len()
	}
	return n
}

// NumRanges returns the number of disjoint ranges.
func (s *RangeSet) NumRanges() int { return len(s.ranges) }

// Ranges returns a copy of the ranges in ascending order.
func (s *RangeSet) Ranges() []Range {
	out := make([]Range, len(s.ranges))
	copy(out, s.ranges)
	return out
}

// View returns the internal range slice without copying. The result is
// read-only and valid only until the next mutation of the set; use it in
// hot paths that inspect ranges within a single call frame.
func (s *RangeSet) View() []Range { return s.ranges }

// Min returns the smallest value in the set; ok is false when empty.
func (s *RangeSet) Min() (v uint64, ok bool) {
	if len(s.ranges) == 0 {
		return 0, false
	}
	return s.ranges[0].Lo, true
}

// Max returns the largest value in the set; ok is false when empty.
func (s *RangeSet) Max() (v uint64, ok bool) {
	if len(s.ranges) == 0 {
		return 0, false
	}
	return s.ranges[len(s.ranges)-1].Hi - 1, true
}

// ContiguousFrom returns the end of the contiguous run starting at base:
// the smallest value >= base not in the set. If base itself is missing it
// returns base.
func (s *RangeSet) ContiguousFrom(base uint64) uint64 {
	i := sort.Search(len(s.ranges), func(i int) bool { return s.ranges[i].Hi > base })
	if i < len(s.ranges) && s.ranges[i].Lo <= base {
		return s.ranges[i].Hi
	}
	return base
}

// Gaps returns the maximal ranges absent from the set between from and to
// (half-open), in ascending order. This is the receiver's "unacked list"
// over [smallest-missing, largest-received+1).
func (s *RangeSet) Gaps(from, to uint64) []Range {
	var out []Range
	cur := from
	for _, r := range s.ranges {
		if r.Hi <= from {
			continue
		}
		if r.Lo >= to {
			break
		}
		if r.Lo > cur {
			out = append(out, Range{Lo: cur, Hi: minU64(r.Lo, to)})
		}
		if r.Hi > cur {
			cur = r.Hi
		}
		if cur >= to {
			return out
		}
	}
	if cur < to {
		out = append(out, Range{Lo: cur, Hi: to})
	}
	return out
}

// String renders the set like {[0,3) [5,9)}.
func (s *RangeSet) String() string {
	parts := make([]string, len(s.ranges))
	for i, r := range s.ranges {
		parts[i] = r.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
