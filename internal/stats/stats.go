// Package stats provides the light statistical toolkit used across the
// experiment harness: streaming summaries, percentiles and fixed-width
// table rendering for paper-style result output.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary accumulates a stream of float64 observations and answers
// count/mean/min/max/percentile queries. Min, max, and sum are maintained
// incrementally so frequent extremum queries (metrics snapshots poll them)
// never force a sort; percentile queries still sort lazily.
type Summary struct {
	vals     []float64
	sorted   bool
	sum      float64
	min, max float64
}

// NewSummary returns an empty summary.
func NewSummary() *Summary { return &Summary{} }

// Add records one observation. A nil summary records nothing.
func (s *Summary) Add(v float64) {
	if s == nil {
		return
	}
	if len(s.vals) == 0 || v < s.min {
		s.min = v
	}
	if len(s.vals) == 0 || v > s.max {
		s.max = v
	}
	s.vals = append(s.vals, v)
	s.sorted = false
	s.sum += v
}

// Count returns the number of observations.
func (s *Summary) Count() int { return len(s.vals) }

// Sum returns the sum of all observations.
func (s *Summary) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 for an empty summary.
func (s *Summary) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.sum / float64(len(s.vals))
}

// Min returns the smallest observation, or +Inf when empty.
func (s *Summary) Min() float64 {
	if len(s.vals) == 0 {
		return math.Inf(1)
	}
	return s.min
}

// Max returns the largest observation, or -Inf when empty.
func (s *Summary) Max() float64 {
	if len(s.vals) == 0 {
		return math.Inf(-1)
	}
	return s.max
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between closest ranks. Empty summaries return 0.
func (s *Summary) Percentile(p float64) float64 {
	s.ensureSorted()
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return s.vals[0]
	}
	if p >= 100 {
		return s.vals[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.vals[lo]
	}
	frac := rank - float64(lo)
	return s.vals[lo]*(1-frac) + s.vals[hi]*frac
}

// Median is Percentile(50).
func (s *Summary) Median() float64 { return s.Percentile(50) }

// Values returns a copy of the observations in sorted order.
func (s *Summary) Values() []float64 {
	s.ensureSorted()
	out := make([]float64, len(s.vals))
	copy(out, s.vals)
	return out
}

func (s *Summary) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// Table renders fixed-width ASCII tables for experiment output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells beyond the header width are dropped, missing
// cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf appends a row formatting each cell with fmt.Sprint.
func (t *Table) AddRowf(cells ...any) {
	s := make([]string, len(cells))
	for i, c := range cells {
		s[i] = fmt.Sprint(c)
	}
	t.AddRow(s...)
}

// String renders the table.
func (t *Table) String() string {
	w := make([]int, len(t.header))
	for i, h := range t.header {
		w[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", w[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	total := 0
	for _, x := range w {
		total += x
	}
	b.WriteString(strings.Repeat("-", total+2*(len(w)-1)))
	b.WriteByte('\n')
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

// Mbps formats a bits-per-second value in Mbit/s with two decimals.
func Mbps(bps float64) string { return fmt.Sprintf("%.2f", bps/1e6) }

// Pct formats a fraction in [0,1] as a percentage with one decimal.
func Pct(frac float64) string { return fmt.Sprintf("%.1f%%", frac*100) }
