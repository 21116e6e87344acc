package obs

// Latency histograms for the long-lived service endpoints: lock-free
// log-linear buckets (4 sub-buckets per power of two, so any quantile
// estimate is within ~25% of the true value) recording durations in
// nanoseconds. Like counters, histograms are nil-receiver-safe no-ops
// when observability is disabled, and their values never feed back into
// any computation.

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histSub is the number of sub-buckets per power-of-two octave; with 4,
// a bucket spans a 1.25x range and quantiles are ~12-25% accurate.
const histSub = 4

// histBuckets covers durations from 1ns to ~2^55ns (over a year — far
// past any request this service will ever serve); longer observations
// clamp into the last bucket.
const histBuckets = 54 * histSub

// Histogram is a fixed-bucket latency histogram. The zero value is ready
// to use; a nil *Histogram ignores every call.
type Histogram struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	maxNs   atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// histIndex maps a nanosecond duration to its bucket.
func histIndex(ns int64) int {
	if ns < histSub {
		return 0
	}
	v := uint64(ns)
	octave := bits.Len64(v) - 1 // >= 2 because ns >= histSub
	sub := int((v >> (uint(octave) - 2)) & (histSub - 1))
	i := (octave-2)*histSub + sub
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// histLower returns the lower bound (ns) of bucket i; the bucket spans
// [histLower(i), histLower(i+1)).
func histLower(i int) int64 {
	octave := i/histSub + 2
	sub := i % histSub
	return (int64(histSub) + int64(sub)) << (uint(octave) - 2)
}

// Observe records one duration. Safe for concurrent use; no-op on nil.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sumNs.Add(ns)
	for {
		old := h.maxNs.Load()
		if ns <= old || h.maxNs.CompareAndSwap(old, ns) {
			break
		}
	}
	h.buckets[histIndex(ns)].Add(1)
}

// Count returns how many observations the histogram holds.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile estimates the q-quantile (q in [0,1]) in seconds, linearly
// interpolated within the winning bucket. Returns 0 with no
// observations. Concurrent Observes make the estimate a point-in-time
// best effort, exactly like counter snapshots.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := 0; i < histBuckets; i++ {
		n := float64(h.buckets[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lo, hi := histLower(i), histLower(i+1)
			frac := (rank - cum) / n
			est := float64(lo) + frac*float64(hi-lo)
			// Interpolation can overshoot the largest observation in the
			// bucket; the true quantile never exceeds the observed max.
			if mx := float64(h.maxNs.Load()); est > mx {
				est = mx
			}
			return est / 1e9
		}
		cum += n
	}
	return float64(h.maxNs.Load()) / 1e9
}

// HistogramStats is one histogram's summary as it appears in a Report.
type HistogramStats struct {
	// Count is the number of observations.
	Count int64 `json:"count"`
	// MeanSeconds is the arithmetic mean latency.
	MeanSeconds float64 `json:"mean_seconds"`
	// P50Seconds / P95Seconds / P99Seconds are estimated quantiles
	// (log-linear buckets, ~25% resolution).
	P50Seconds float64 `json:"p50_seconds"`
	P95Seconds float64 `json:"p95_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
	// MaxSeconds is the largest observation.
	MaxSeconds float64 `json:"max_seconds"`
}

// Stats summarizes the histogram. Nil receiver returns the zero stats.
func (h *Histogram) Stats() HistogramStats {
	if h == nil {
		return HistogramStats{}
	}
	n := h.count.Load()
	s := HistogramStats{
		Count:      n,
		P50Seconds: h.Quantile(0.50),
		P95Seconds: h.Quantile(0.95),
		P99Seconds: h.Quantile(0.99),
		MaxSeconds: float64(h.maxNs.Load()) / 1e9,
	}
	if n > 0 {
		s.MeanSeconds = float64(h.sumNs.Load()) / float64(n) / 1e9
	}
	return s
}

// Histogram returns the named histogram, creating it on first use. On a
// nil *Metrics it returns a nil *Histogram, a valid no-op sink; fetch it
// once and Observe unconditionally, like counters.
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.histograms == nil {
		m.histograms = map[string]*Histogram{}
	}
	h := m.histograms[name]
	if h == nil {
		h = &Histogram{}
		m.histograms[name] = h
	}
	return h
}
