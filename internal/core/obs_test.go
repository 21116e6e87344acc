package core

import (
	"bytes"
	"testing"

	"repro/internal/bench"
	"repro/internal/obs"
)

// TestRunReport drives the full pipeline with observability enabled and
// checks the emitted run report: the stage spans must exist, their wall
// times must account for (nearly) the whole run, the cache counters must
// agree with the Dataset's own accounting, and enabling metrics must not
// change a single result bit.
func TestRunReport(t *testing.T) {
	reg, err := bench.StandardRegistry()
	if err != nil {
		t.Fatal(err)
	}
	cfg := TestConfig()
	cfg.CacheDir = t.TempDir()
	cfg.Metrics = obs.New()

	res, err := Run(reg, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := cfg.Metrics.Snapshot()

	spans := map[string]obs.SpanRecord{}
	var sum float64
	for _, s := range rep.Spans {
		spans[s.Stage] = s
		sum += s.WallSeconds
	}
	for _, stage := range []string{"characterize", "pca", "kmeans", "prominent"} {
		if _, ok := spans[stage]; !ok {
			t.Fatalf("report missing span %q (have %v)", stage, rep.Spans)
		}
	}
	if got := spans["characterize"].Rows; got != res.Dataset.UniqueIntervals {
		t.Fatalf("characterize span rows = %d, want %d unique intervals", got, res.Dataset.UniqueIntervals)
	}
	if spans["kmeans"].Workers < 1 {
		t.Fatalf("kmeans span lost its worker count: %+v", spans["kmeans"])
	}
	// The four stages are the run; unaccounted wall time (sampling,
	// logging, report writing) must be a sliver. The acceptance bound is
	// 10%; allow 20% here because CI machines stall unpredictably.
	if rep.WallSeconds <= 0 {
		t.Fatalf("report wall = %v", rep.WallSeconds)
	}
	if sum < 0.8*rep.WallSeconds || sum > 1.2*rep.WallSeconds {
		t.Fatalf("stage spans sum to %.3fs of a %.3fs run — the report does not account for the runtime",
			sum, rep.WallSeconds)
	}

	if got := rep.Counters["kmeans.restarts"]; got <= 0 {
		t.Fatalf("kmeans.restarts = %d", got)
	}
	if got := rep.Counters["kmeans.lloyd_iters"]; got <= 0 {
		t.Fatalf("kmeans.lloyd_iters = %d", got)
	}
	// Cold run: every unique interval was a vector miss and then a write.
	if got := rep.Counters["fcache.misses.vector"]; got != int64(res.Dataset.UniqueIntervals) {
		t.Fatalf("fcache.misses.vector = %d, want %d", got, res.Dataset.UniqueIntervals)
	}
	if got := rep.Counters["fcache.hits.vector"]; got != 0 {
		t.Fatalf("cold fcache.hits.vector = %d", got)
	}

	// A half-size sample draws a subset of the same intervals (each
	// benchmark's draws are a prefix of the full sample's) under new
	// artifact keys, so only the vector tier can serve it: its hits must
	// match the Dataset's CacheHits accounting exactly.
	// Run received cfg by value, so the test's copy still has nil
	// sub-config collectors; the fresh one inherits cleanly.
	warmCfg := cfg
	warmCfg.SamplesPerBenchmark = cfg.SamplesPerBenchmark / 2
	warmCfg.Metrics = obs.New()
	warm, err := Run(reg, warmCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	warmRep := warmCfg.Metrics.Snapshot()
	if warmRep.Counters["fcache.hits.vector"] != int64(warm.Dataset.CacheHits) ||
		warm.Dataset.CacheHits != warm.Dataset.UniqueIntervals {
		t.Fatalf("fcache.hits.vector = %d, Dataset.CacheHits = %d, unique = %d — counters disagree",
			warmRep.Counters["fcache.hits.vector"], warm.Dataset.CacheHits, warm.Dataset.UniqueIntervals)
	}

	// Observability must be free of observable effect: an uninstrumented
	// run exports byte-identical results.
	plainCfg := TestConfig()
	plain, err := Run(reg, plainCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := res.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := plain.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("enabling observability changed the exported result")
	}
}

// TestTimelineReportSpans checks AnalyzeTimeline records its stage spans
// and SelectK counters.
func TestTimelineReportSpans(t *testing.T) {
	reg, err := bench.StandardRegistry()
	if err != nil {
		t.Fatal(err)
	}
	cfg := TestConfig()
	cfg.MaxIntervalsPerBenchmark = 6
	cfg.Metrics = obs.New()
	if _, err := AnalyzeTimeline(reg.All()[0], cfg, 4); err != nil {
		t.Fatal(err)
	}
	rep := cfg.Metrics.Snapshot()
	seen := map[string]bool{}
	for _, s := range rep.Spans {
		seen[s.Stage] = true
	}
	for _, stage := range []string{"timeline.characterize", "timeline.pca", "timeline.selectk"} {
		if !seen[stage] {
			t.Fatalf("missing span %q in %v", stage, rep.Spans)
		}
	}
	if rep.Counters["kmeans.selectk_fits"] <= 0 {
		t.Fatalf("kmeans.selectk_fits = %d", rep.Counters["kmeans.selectk_fits"])
	}
}
