package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a process-wide (or per-run) metrics namespace: named
// counters, gauges, and bucketed histograms. Instruments are resolved
// once at construction time of the instrumented component and then updated
// lock-free on the hot path (counters and gauges are single atomics).
//
// Like the Tracer, a nil *Registry is the un-instrumented default: it
// hands out nil instruments whose update methods are no-ops.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram

	// seq is the cached deterministic visit order (counters, gauges,
	// histograms; each group sorted by name), rebuilt lazily after an
	// instrument is created. Exporters iterate it without allocating.
	seq      []seqEntry
	seqDirty bool
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// metricKind discriminates instrument types for each.
type metricKind uint8

const (
	metricCounter metricKind = iota
	metricGauge
	metricHistogram
)

type seqEntry struct {
	name string
	kind metricKind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Counter returns (creating on first use) the named counter. Nil-safe:
// a nil registry returns a nil counter, whose methods are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return instrument(r, r.counters, name)
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return instrument(r, r.gauges, name)
}

// Histogram returns (creating on first use) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return instrument(r, r.histograms, name)
}

// instrument returns m[name], creating a zero instrument under the write
// lock on first use. m is one of r's three maps.
func instrument[T any](r *Registry, m map[string]*T, name string) *T {
	r.mu.RLock()
	v := m[name]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v = m[name]; v == nil {
		v = new(T)
		m[name] = v
		r.seqDirty = true
	}
	return v
}

// sequence returns the deterministic instrument order, rebuilding the
// cache if instruments were created since the last call. The returned
// slice is immutable (rebuilds replace it), so callers iterate it
// without holding the registry lock.
func (r *Registry) sequence() []seqEntry {
	r.mu.RLock()
	if !r.seqDirty {
		s := r.seq
		r.mu.RUnlock()
		return s
	}
	r.mu.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.seqDirty {
		return r.seq
	}
	seq := make([]seqEntry, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for _, n := range sortedNames(r.counters) {
		seq = append(seq, seqEntry{name: n, kind: metricCounter, c: r.counters[n]})
	}
	for _, n := range sortedNames(r.gauges) {
		seq = append(seq, seqEntry{name: n, kind: metricGauge, g: r.gauges[n]})
	}
	for _, n := range sortedNames(r.histograms) {
		seq = append(seq, seqEntry{name: n, kind: metricHistogram, h: r.histograms[n]})
	}
	r.seq, r.seqDirty = seq, false
	return seq
}

func sortedNames[T any](m map[string]*T) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// each calls fn for every instrument in deterministic order (counters,
// then gauges, then histograms; each group sorted by name). Exactly one
// of c/g/h is non-nil per call. fn runs without the registry lock held,
// so it may call back into the registry. Nil-safe.
func (r *Registry) each(fn func(name string, kind metricKind, c *Counter, g *Gauge, h *Histogram)) {
	if r == nil {
		return
	}
	for _, e := range r.sequence() {
		fn(e.name, e.kind, e.c, e.g, e.h)
	}
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. Nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically updated float64 point value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the stored value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// numBuckets is the number of finite histogram buckets: a 1-2-5 series
// per decade over the twelve decades 1e-6 … 5e5, then 1e6.
const numBuckets = 12*3 + 1

// bucketBounds are the fixed log-spaced histogram bucket upper bounds
// shared by every Histogram. One fixed layout keeps Observe branch-free
// of sizing decisions, makes every histogram exportable as a real
// Prometheus histogram, and spans the units the stack records (seconds
// from microsecond loss latencies to multi-second handshakes, batch sizes
// from 1 to 1024). Samples above the last bound land only in the
// implicit +Inf bucket.
var bucketBounds = makeBucketBounds()

func makeBucketBounds() []float64 {
	bounds := make([]float64, 0, numBuckets)
	for d := -6; d <= 5; d++ {
		p := math.Pow(10, float64(d))
		bounds = append(bounds, 1*p, 2*p, 5*p)
	}
	return append(bounds, 1e6)
}

// Histogram is a distribution kept as its fixed bucketBounds counts plus
// the exact count, sum, min and max: its memory does not grow with the
// samples it observes. Observe takes a mutex (histogram observation
// points are chosen off the per-packet hot path: per-ack, per-loss,
// per-batch).
type Histogram struct {
	mu       sync.Mutex
	buckets  [numBuckets]uint64 // non-cumulative counts, parallel to bucketBounds
	count    int
	sum      float64
	min, max float64
}

// Observe records one sample. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(bucketBounds, v)
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if i < numBuckets {
		h.buckets[i]++
	}
	h.mu.Unlock()
}

// VisitBuckets calls fn for each finite bucket bound with the
// cumulative count of samples ≤ bound (Prometheus `le` semantics), in
// ascending bound order, then returns the total sample count and sum.
// Samples above the last bound are covered only by the caller's +Inf
// bucket (count). fn runs without the histogram lock held.
func (h *Histogram) VisitBuckets(fn func(le float64, cumulative uint64)) (count int, sum float64) {
	if h == nil {
		return 0, 0
	}
	h.mu.Lock()
	buckets, count, sum := h.buckets, h.count, h.sum
	h.mu.Unlock()
	var cum uint64
	for i, n := range buckets {
		cum += n
		fn(bucketBounds[i], cum)
	}
	return count, sum
}

// stat summarizes the histogram from one consistent copy of its state.
func (h *Histogram) stat() HistogramStat {
	h.mu.Lock()
	buckets := h.buckets
	s := HistogramStat{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	h.mu.Unlock()
	if s.Count == 0 {
		return HistogramStat{}
	}
	s.Mean = s.Sum / float64(s.Count)
	s.P50 = s.quantile(&buckets, 0.50)
	s.P95 = s.quantile(&buckets, 0.95)
	s.P99 = s.quantile(&buckets, 0.99)
	return s
}

// quantile estimates the q-quantile the way Prometheus's
// histogram_quantile does from the same `le` series: find the bucket
// holding rank q·Count, interpolate linearly across it (the first
// bucket's lower edge is 0), and clamp the result to [Min, Max]. The +Inf
// bucket, which Prometheus can only answer with the last finite bound,
// has Max as its upper edge here.
func (s *HistogramStat) quantile(buckets *[numBuckets]uint64, q float64) float64 {
	rank := q * float64(s.Count)
	i, below := 0, uint64(0) // below: samples in the buckets before i
	for ; i < numBuckets && float64(below+buckets[i]) < rank; i++ {
		below += buckets[i]
	}
	lo, hi, n := 0.0, s.Max, uint64(s.Count)-below // i == numBuckets: +Inf
	if i > 0 {
		lo = bucketBounds[i-1]
	}
	if i < numBuckets {
		hi, n = bucketBounds[i], buckets[i]
	}
	v := lo + (hi-lo)*(rank-float64(below))/float64(n)
	return math.Min(math.Max(v, s.Min), s.Max)
}

// HistogramStat is a point-in-time histogram digest. Count, Sum, Mean,
// Min and Max are exact; the percentiles are bucket estimates.
type HistogramStat struct {
	Count int     `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Snapshot is a point-in-time copy of every instrument in a registry.
type Snapshot struct {
	Counters   map[string]int64         `json:"counters,omitempty"`
	Gauges     map[string]float64       `json:"gauges,omitempty"`
	Histograms map[string]HistogramStat `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current values, reading instruments
// in the deterministic each order so concurrent updates are observed in
// a stable sequence and exports diff cleanly run-to-run. Nil-safe
// (returns an empty snapshot).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{}
	r.each(func(name string, kind metricKind, c *Counter, g *Gauge, h *Histogram) {
		switch kind {
		case metricCounter:
			if s.Counters == nil {
				s.Counters = map[string]int64{}
			}
			s.Counters[name] = c.Value()
		case metricGauge:
			if s.Gauges == nil {
				s.Gauges = map[string]float64{}
			}
			s.Gauges[name] = g.Value()
		case metricHistogram:
			if s.Histograms == nil {
				s.Histograms = map[string]HistogramStat{}
			}
			s.Histograms[name] = h.stat()
		}
	})
	return s
}
