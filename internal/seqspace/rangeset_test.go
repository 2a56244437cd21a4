package seqspace

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRangeBasics(t *testing.T) {
	r := Range{Lo: 2, Hi: 5}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if !r.Contains(2) || !r.Contains(4) || r.Contains(5) || r.Contains(1) {
		t.Fatal("Contains boundary behaviour wrong")
	}
	if (Range{Lo: 5, Hi: 5}).Len() != 0 {
		t.Fatal("empty range Len should be 0")
	}
}

func TestAddMergesAdjacent(t *testing.T) {
	var s RangeSet
	s.Add(0, 3)
	s.Add(3, 6) // adjacent: must merge
	if s.NumRanges() != 1 {
		t.Fatalf("adjacent add left %d ranges: %v", s.NumRanges(), s.String())
	}
	if !s.ContainsRange(0, 6) {
		t.Fatal("merged range incomplete")
	}
}

func TestAddMergesOverlappingChain(t *testing.T) {
	var s RangeSet
	s.Add(0, 2)
	s.Add(4, 6)
	s.Add(8, 10)
	s.Add(1, 9) // spans all three
	if s.NumRanges() != 1 || !s.ContainsRange(0, 10) {
		t.Fatalf("chain merge failed: %v", s.String())
	}
}

func TestAddOutOfOrder(t *testing.T) {
	var s RangeSet
	s.AddValue(5)
	s.AddValue(1)
	s.AddValue(3)
	if s.Count() != 3 || s.NumRanges() != 3 {
		t.Fatalf("set = %v", s.String())
	}
	s.AddValue(2)
	if s.NumRanges() != 2 {
		t.Fatalf("after filling 2: %v", s.String())
	}
	s.AddValue(4)
	if s.NumRanges() != 1 || !s.ContainsRange(1, 6) {
		t.Fatalf("after filling 4: %v", s.String())
	}
}

func TestRemoveSplits(t *testing.T) {
	var s RangeSet
	s.Add(0, 10)
	s.Remove(3, 7)
	if s.Contains(3) || s.Contains(6) || !s.Contains(2) || !s.Contains(7) {
		t.Fatalf("after remove: %v", s.String())
	}
	if s.NumRanges() != 2 || s.Count() != 6 {
		t.Fatalf("after remove: %v count=%d", s.String(), s.Count())
	}
}

func TestRemoveBelow(t *testing.T) {
	var s RangeSet
	s.Add(0, 5)
	s.Add(8, 12)
	s.RemoveBelow(9)
	if s.Count() != 3 || !s.ContainsRange(9, 12) {
		t.Fatalf("after RemoveBelow: %v", s.String())
	}
}

func TestMinMax(t *testing.T) {
	var s RangeSet
	if _, ok := s.Min(); ok {
		t.Fatal("empty Min should not be ok")
	}
	if _, ok := s.Max(); ok {
		t.Fatal("empty Max should not be ok")
	}
	s.Add(4, 7)
	s.Add(10, 12)
	if v, _ := s.Min(); v != 4 {
		t.Fatalf("Min = %d, want 4", v)
	}
	if v, _ := s.Max(); v != 11 {
		t.Fatalf("Max = %d, want 11", v)
	}
}

func TestContiguousFrom(t *testing.T) {
	var s RangeSet
	s.Add(0, 4)
	s.Add(6, 9)
	if got := s.ContiguousFrom(0); got != 4 {
		t.Fatalf("ContiguousFrom(0) = %d, want 4", got)
	}
	if got := s.ContiguousFrom(4); got != 4 {
		t.Fatalf("ContiguousFrom(4) = %d, want 4 (missing)", got)
	}
	if got := s.ContiguousFrom(6); got != 9 {
		t.Fatalf("ContiguousFrom(6) = %d, want 9", got)
	}
}

func TestGaps(t *testing.T) {
	var s RangeSet
	// Received 1, 4..6, 10 (paper §5.1 example): acked {1},{4,6},{10},
	// unacked gaps over [1,11) are {2,3} and {7,9}.
	s.AddValue(1)
	s.Add(4, 7)
	s.AddValue(10)
	gaps := s.Gaps(1, 11)
	want := []Range{{Lo: 2, Hi: 4}, {Lo: 7, Hi: 10}}
	if len(gaps) != len(want) {
		t.Fatalf("gaps = %v, want %v", gaps, want)
	}
	for i := range want {
		if gaps[i] != want[i] {
			t.Fatalf("gaps = %v, want %v", gaps, want)
		}
	}
}

func TestGapsEdges(t *testing.T) {
	var s RangeSet
	if gaps := s.Gaps(0, 5); len(gaps) != 1 || gaps[0] != (Range{Lo: 0, Hi: 5}) {
		t.Fatalf("empty-set gaps = %v", gaps)
	}
	s.Add(0, 5)
	if gaps := s.Gaps(0, 5); len(gaps) != 0 {
		t.Fatalf("full-set gaps = %v", gaps)
	}
	if gaps := s.Gaps(3, 3); len(gaps) != 0 {
		t.Fatalf("empty-window gaps = %v", gaps)
	}
}

// reference is a brute-force model of RangeSet over a small universe.
type reference map[uint64]bool

func (m reference) add(lo, hi uint64) {
	for v := lo; v < hi; v++ {
		m[v] = true
	}
}
func (m reference) remove(lo, hi uint64) {
	for v := lo; v < hi; v++ {
		delete(m, v)
	}
}

// op is a randomized add/remove over a bounded universe for model checking.
type op struct {
	Remove bool
	Lo     uint16
	Len    uint8
}

// TestQuickRangeSetMatchesModel checks RangeSet against a map-based model:
// membership, count, and structural invariants (sorted, disjoint,
// non-adjacent).
func TestQuickRangeSetMatchesModel(t *testing.T) {
	f := func(ops []op) bool {
		var s RangeSet
		m := reference{}
		for _, o := range ops {
			lo := uint64(o.Lo % 512)
			hi := lo + uint64(o.Len%32)
			if o.Remove {
				s.Remove(lo, hi)
				m.remove(lo, hi)
			} else {
				s.Add(lo, hi)
				m.add(lo, hi)
			}
		}
		if s.Count() != uint64(len(m)) {
			return false
		}
		for v := uint64(0); v < 600; v++ {
			if s.Contains(v) != m[v] {
				return false
			}
		}
		rs := s.Ranges()
		for i, r := range rs {
			if r.Hi <= r.Lo {
				return false
			}
			if i > 0 && rs[i-1].Hi >= r.Lo { // must be disjoint AND non-adjacent
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickGapsComplement checks that Gaps is exactly the complement of the
// set within the probed window.
func TestQuickGapsComplement(t *testing.T) {
	f := func(ops []op, fromRaw, toRaw uint16) bool {
		var s RangeSet
		for _, o := range ops {
			lo := uint64(o.Lo % 512)
			s.Add(lo, lo+uint64(o.Len%32))
		}
		from, to := uint64(fromRaw%600), uint64(toRaw%600)
		if from > to {
			from, to = to, from
		}
		gaps := s.Gaps(from, to)
		var g RangeSet
		for _, r := range gaps {
			g.AddRange(r)
		}
		for v := from; v < to; v++ {
			if s.Contains(v) == g.Contains(v) {
				return false // must be exact complements inside the window
			}
		}
		// Gaps must not leak outside the window.
		if gmin, ok := g.Min(); ok && gmin < from {
			return false
		}
		if gmax, ok := g.Max(); ok && gmax >= to {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(12))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRangeSetAddSequential(b *testing.B) {
	var s RangeSet
	for i := 0; i < b.N; i++ {
		s.Add(uint64(i)*2, uint64(i)*2+1)
		if s.NumRanges() > 4096 {
			s = RangeSet{}
		}
	}
}
