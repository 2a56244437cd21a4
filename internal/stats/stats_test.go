package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	s := NewSummary()
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Add(v)
	}
	if s.Count() != 5 {
		t.Fatalf("Count = %d, want 5", s.Count())
	}
	if s.Sum() != 15 {
		t.Fatalf("Sum = %v, want 15", s.Sum())
	}
	if s.Mean() != 3 {
		t.Fatalf("Mean = %v, want 3", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v, want 1/5", s.Min(), s.Max())
	}
	if s.Median() != 3 {
		t.Fatalf("Median = %v, want 3", s.Median())
	}
}

func TestSummaryEmpty(t *testing.T) {
	s := NewSummary()
	if s.Mean() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty summary should return zeros")
	}
	if !math.IsInf(s.Min(), 1) || !math.IsInf(s.Max(), -1) {
		t.Fatal("empty Min/Max should be infinities")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	s := NewSummary()
	for i := 1; i <= 4; i++ {
		s.Add(float64(i)) // 1,2,3,4
	}
	if got := s.Percentile(50); got != 2.5 {
		t.Fatalf("P50 = %v, want 2.5", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("P0 = %v, want 1", got)
	}
	if got := s.Percentile(100); got != 4 {
		t.Fatalf("P100 = %v, want 4", got)
	}
	if got := s.Percentile(95); math.Abs(got-3.85) > 1e-9 {
		t.Fatalf("P95 = %v, want 3.85", got)
	}
}

// TestPercentileSmallAndPooled pins the one percentile implementation on
// the shapes the experiments feed it: a single object, a pair, and the
// ab-rack pool of 120 completions whose p99 falls between two ranks.
func TestPercentileSmallAndPooled(t *testing.T) {
	one := NewSummary()
	one.Add(7)
	for _, p := range []float64{0, 50, 95, 99, 100} {
		if got := one.Percentile(p); got != 7 {
			t.Errorf("n=1: P%v = %v, want 7", p, got)
		}
	}

	two := NewSummary()
	two.Add(20)
	two.Add(10)
	for p, want := range map[float64]float64{0: 10, 50: 15, 95: 19.5, 99: 19.9, 100: 20} {
		if got := two.Percentile(p); math.Abs(got-want) > 1e-9 {
			t.Errorf("n=2: P%v = %v, want %v", p, got, want)
		}
	}

	pool := NewSummary()
	for i := 120; i >= 1; i-- {
		pool.Add(float64(i)) // 1..120
	}
	// rank = 0.99 × 119 = 117.81: between the 118th and 119th values.
	if got := pool.Percentile(99); math.Abs(got-118.81) > 1e-9 {
		t.Errorf("n=120: P99 = %v, want 118.81", got)
	}
	if got := pool.Percentile(95); math.Abs(got-114.05) > 1e-9 {
		t.Errorf("n=120: P95 = %v, want 114.05", got)
	}
}

func TestAddAfterPercentileQuery(t *testing.T) {
	s := NewSummary()
	s.Add(10)
	_ = s.Median() // forces sort
	s.Add(0)
	if got := s.Min(); got != 0 {
		t.Fatalf("Min after re-add = %v, want 0", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Link", "Goodput")
	tb.AddRow("802.11n", "198")
	tb.AddRowf("802.11ac", 556)
	out := tb.String()
	if !strings.Contains(out, "802.11ac") || !strings.Contains(out, "556") {
		t.Fatalf("table missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
}

func TestFormatters(t *testing.T) {
	if got := Mbps(54e6); got != "54.00" {
		t.Fatalf("Mbps = %q", got)
	}
	if got := Pct(0.905); got != "90.5%" {
		t.Fatalf("Pct = %q", got)
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(vals []float64, a, b float64) bool {
		if len(vals) == 0 {
			return true
		}
		s := NewSummary()
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Add(v)
		}
		pa := math.Mod(math.Abs(a), 100)
		pb := math.Mod(math.Abs(b), 100)
		if pa > pb {
			pa, pb = pb, pa
		}
		va, vb := s.Percentile(pa), s.Percentile(pb)
		return va <= vb && va >= s.Min() && vb <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
