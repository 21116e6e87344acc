package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	m := New()
	h := m.Histogram("http.request")
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", h.Count())
	}
	// Log-linear buckets resolve quantiles to ~25%; check the estimates
	// land in a generous window around the true values.
	checks := []struct {
		q, want float64
	}{{0.50, 0.500}, {0.95, 0.950}, {0.99, 0.990}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if got < c.want*0.70 || got > c.want*1.40 {
			t.Errorf("Quantile(%v) = %v, want within 30%%/40%% of %v", c.q, got, c.want)
		}
	}
	s := h.Stats()
	if s.P50Seconds > s.P95Seconds || s.P95Seconds > s.P99Seconds || s.P99Seconds > s.MaxSeconds {
		t.Fatalf("quantiles not monotone: %+v", s)
	}
	if s.MaxSeconds != 1.0 {
		t.Fatalf("max = %v, want 1.0", s.MaxSeconds)
	}
	if s.MeanSeconds < 0.4 || s.MeanSeconds > 0.6 {
		t.Fatalf("mean = %v, want ~0.5", s.MeanSeconds)
	}
}

func TestHistogramNilAndEmpty(t *testing.T) {
	var m *Metrics
	h := m.Histogram("nope")
	h.Observe(time.Second) // must not panic
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram must be a no-op sink")
	}
	if s := h.Stats(); s != (HistogramStats{}) {
		t.Fatalf("nil stats = %+v, want zero", s)
	}
	real := New().Histogram("empty")
	if real.Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	m := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := m.Histogram("shared")
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := m.Histogram("shared").Count(); got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
}

func TestHistogramInReport(t *testing.T) {
	m := New()
	m.Histogram("http.jobs").Observe(10 * time.Millisecond)
	m.ObserveSince("http.jobs", time.Now().Add(-20*time.Millisecond))
	r := m.Snapshot()
	hs, ok := r.Histograms["http.jobs"]
	if !ok {
		t.Fatalf("report has no http.jobs histogram: %+v", r.Histograms)
	}
	if hs.Count != 2 {
		t.Fatalf("count = %d, want 2", hs.Count)
	}
	if !strings.Contains(m.Summary(), "latency http.jobs") {
		t.Fatalf("summary lacks latency line:\n%s", m.Summary())
	}
	// A collector with no histograms must omit the field entirely.
	if r2 := New().Snapshot(); r2.Histograms != nil {
		t.Fatalf("empty collector has histograms: %+v", r2.Histograms)
	}
}

func TestHistogramBucketsMonotone(t *testing.T) {
	last := int64(-1)
	for i := 0; i < histBuckets; i++ {
		lo := histLower(i)
		if lo <= last {
			t.Fatalf("bucket %d lower bound %d not increasing past %d", i, lo, last)
		}
		if got := histIndex(lo); got != i {
			t.Fatalf("histIndex(histLower(%d)) = %d", i, got)
		}
		last = lo
	}
	if histIndex(0) != 0 || histIndex(1) != 0 {
		t.Fatal("tiny durations must land in bucket 0")
	}
}
