package main

import (
	"errors"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// MB and GB are decimal, like link rates.
const (
	MB = 1e6
	GB = 1e9
)

// minBeyond is how many samples must lie beyond a reported percentile.
// Ten is the least that makes a percentile more than the slowest sample
// renamed; thirty is what it took here for a tail to repeat between runs
// within its bound (a p99 with 13 samples beyond it spread by 22 %).
const minBeyond = 30

// errTooFewSamples is returned by percentile when fewer than minBeyond
// samples lie beyond the requested rank.
var errTooFewSamples = errors.New("fewer than 30 samples beyond the percentile")

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of an
// ascending slice, and refuses when fewer than minBeyond samples lie
// beyond it: a tail read off a handful of samples is the slowest sample
// under another name.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	k := int(math.Ceil(p*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if n-1-k < minBeyond {
		return 0, errTooFewSamples
	}
	return sorted[k], nil
}

// median returns the middle of an ascending slice (mean of the two middle
// samples for an even count), 0 for an empty one.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of v and returns its median.
func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return median(s)
}

// tail returns the highest of p99, p90, p75 and p50 that has at least
// minBeyond samples beyond it, and names the level used. With fewer than
// sixty samples no level qualifies and the median stands in ("none").
func tail(sorted []float64) (float64, string) {
	for _, l := range []struct {
		p    float64
		name string
	}{{0.99, "p99"}, {0.90, "p90"}, {0.75, "p75"}, {0.50, "p50"}} {
		if v, err := percentile(sorted, l.p); err == nil {
			return v, l.name
		}
	}
	return median(sorted), "none"
}

// pctOrZero is percentile for per-layer readings: 0 when unsupported.
func pctOrZero(sorted []float64, p float64) float64 {
	v, err := percentile(sorted, p)
	if err != nil {
		return 0
	}
	return v
}

// cpuTime is the process's user+system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// allocMark is a point reading of the allocator and collector.
type allocMark struct {
	mallocs, bytes, pauseNs uint64
}

func readAllocs() allocMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMark{ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs}
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
