package telemetry

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/tacktp/tack/internal/stats"
)

// TestHistogramObserveAllocs pins a histogram's memory as independent of
// the samples it has seen: observing allocates nothing, at any magnitude.
// One run observes many samples, so growth that amortises over samples
// (an appended log) still counts: AllocsPerRun divides by runs, not by
// samples.
func TestHistogramObserveAllocs(t *testing.T) {
	h := NewRegistry().Histogram("h")
	var values []float64
	for d := -7; d <= 7; d++ {
		values = append(values, 3*math.Pow(10, float64(d)))
	}
	const rounds = 10000
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < rounds; i++ {
			for _, v := range values {
				h.Observe(v)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %v times per %d samples, want 0", allocs, rounds*len(values))
	}
}

// TestHistogramAgainstSummary checks the bucket digest against the exact
// stats.Summary over the same samples: Count, Sum, Mean, Min and Max are
// identical, and each percentile estimate lies in [Min, Max] and in the
// bucket that holds the exact percentile. The spread cases have 100k+1
// samples, so every exact percentile is a sample rather than an
// interpolation between two that may straddle a bucket bound.
func TestHistogramAgainstSummary(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	logUniform := func(n int, lo, hi float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = lo * math.Pow(hi/lo, rng.Float64())
		}
		return out
	}
	constant := make([]float64, 500)
	for i := range constant {
		constant[i] = 0.25
	}
	for _, tc := range []struct {
		name    string
		samples []float64
	}{
		{"1e-6..1e6 x10001", logUniform(10001, 1e-6, 1e6)},
		{"1e-6..1e6 x101", logUniform(101, 1e-6, 1e6)},
		{"above the last bound", logUniform(101, 1e6, 1e8)},
		{"constant", constant},
		{"single sample", []float64{0.042}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := NewRegistry().Histogram("h")
			ref := stats.NewSummary()
			for _, v := range tc.samples {
				h.Observe(v)
				ref.Add(v)
			}
			got := h.stat()
			want := HistogramStat{Count: ref.Count(), Sum: ref.Sum(), Mean: ref.Mean(), Min: ref.Min(), Max: ref.Max()}
			if got.Count != want.Count || got.Sum != want.Sum || got.Mean != want.Mean ||
				got.Min != want.Min || got.Max != want.Max {
				t.Fatalf("digest %+v, want exact %+v", got, want)
			}
			bucket := func(v float64) int { return sort.SearchFloat64s(bucketBounds, v) }
			for _, p := range []struct {
				pct float64
				est float64
			}{{50, got.P50}, {95, got.P95}, {99, got.P99}} {
				exact := ref.Percentile(p.pct)
				if p.est < got.Min || p.est > got.Max {
					t.Errorf("p%v = %g outside [%g, %g]", p.pct, p.est, got.Min, got.Max)
				}
				if bucket(p.est) != bucket(exact) {
					t.Errorf("p%v = %g in bucket %s, exact %g in bucket %s",
						p.pct, p.est, bucketName(bucket(p.est)), exact, bucketName(bucket(exact)))
				}
			}
		})
	}
}

// bucketName renders bucket i as its (lower, upper] bounds.
func bucketName(i int) string {
	lo, hi := math.Inf(-1), math.Inf(1)
	if i > 0 {
		lo = bucketBounds[i-1]
	}
	if i < numBuckets {
		hi = bucketBounds[i]
	}
	return fmt.Sprintf("(%g, %g]", lo, hi)
}
