package core

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/obs"
)

// cacheTestSetup builds a small sample over the standard registry.
func cacheTestSetup(t *testing.T) ([]IntervalRef, Config) {
	t.Helper()
	reg, err := bench.StandardRegistry()
	if err != nil {
		t.Fatal(err)
	}
	cfg := TestConfig()
	cfg.SamplesPerBenchmark = 2
	cfg.MaxIntervalsPerBenchmark = 4
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	refs := SampleRefs(reg, cfg)[:40]
	return refs, cfg
}

func datasetsBitIdentical(t *testing.T, a, b *Dataset, ctx string) {
	t.Helper()
	if a.Instructions != b.Instructions {
		t.Fatalf("%s: Instructions %d != %d", ctx, a.Instructions, b.Instructions)
	}
	if a.UniqueIntervals != b.UniqueIntervals {
		t.Fatalf("%s: UniqueIntervals %d != %d", ctx, a.UniqueIntervals, b.UniqueIntervals)
	}
	if len(a.Raw.Data) != len(b.Raw.Data) {
		t.Fatalf("%s: matrix sizes differ", ctx)
	}
	for i := range a.Raw.Data {
		if math.Float64bits(a.Raw.Data[i]) != math.Float64bits(b.Raw.Data[i]) {
			t.Fatalf("%s: matrix element %d: %v != %v (bit-exact)", ctx, i, a.Raw.Data[i], b.Raw.Data[i])
		}
	}
}

// TestCharacterizeCacheBitIdentical runs the same sample uncached,
// cache-cold and cache-warm, plus a subset of it that only the vector
// tier can serve, and requires every dataset bit-identical — the cache
// may only change speed, never a single stored bit.
func TestCharacterizeCacheBitIdentical(t *testing.T) {
	refs, cfg := cacheTestSetup(t)

	plain, err := Characterize(refs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.CacheHits != 0 {
		t.Fatalf("uncached run reported %d cache hits", plain.CacheHits)
	}

	cfg.CacheDir = t.TempDir()
	cfg.Metrics = obs.New()
	cold, err := Characterize(refs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHits != 0 {
		t.Fatalf("cold cache run reported %d hits", cold.CacheHits)
	}
	if got := cfg.Metrics.Counter("fcache.misses.vector").Value(); got != int64(cold.UniqueIntervals) {
		t.Fatalf("cold run missed %d interval vectors, want all %d generated", got, cold.UniqueIntervals)
	}
	cfg.Metrics = obs.New()
	warm, err := Characterize(refs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != warm.UniqueIntervals {
		t.Fatalf("warm run hit %d of %d unique intervals", warm.CacheHits, warm.UniqueIntervals)
	}

	// A subset of the sample is a different dataset: its artifact misses,
	// and the vector tier must serve every interval — the observability
	// layer agreeing with the Dataset's accounting, hit for hit.
	sub := refs[len(refs)/4:]
	cfg.Metrics = obs.New()
	part, err := Characterize(sub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if part.CacheHits != part.UniqueIntervals {
		t.Fatalf("subset run hit %d of %d unique intervals", part.CacheHits, part.UniqueIntervals)
	}
	if got := cfg.Metrics.Counter("fcache.hits.vector").Value(); got != int64(part.CacheHits) {
		t.Fatalf("fcache.hits.vector = %d, want CacheHits = %d", got, part.CacheHits)
	}
	if got := cfg.Metrics.Counter("fcache.misses.vector").Value(); got != 0 {
		t.Fatalf("subset run missed %d interval vectors", got)
	}
	cfg.Metrics = nil

	datasetsBitIdentical(t, plain, cold, "plain vs cold")
	datasetsBitIdentical(t, plain, warm, "plain vs warm")
	off := len(refs) - len(sub)
	for i := range sub {
		for j, v := range part.Raw.Row(i) {
			if math.Float64bits(v) != math.Float64bits(plain.Raw.At(off+i, j)) {
				t.Fatalf("subset row %d col %d: %v != %v (bit-exact)", i, j, v, plain.Raw.At(off+i, j))
			}
		}
	}
}

// TestCharacterizeCorruptCacheRegenerates damages every cached entry and
// verifies the next run detects the damage, regenerates bit-identical
// results, and leaves the cache healed.
func TestCharacterizeCorruptCacheRegenerates(t *testing.T) {
	refs, cfg := cacheTestSetup(t)
	cfg.CacheDir = t.TempDir()

	cold, err := Characterize(refs, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte in every entry file.
	var entries []string
	filepath.Walk(cfg.CacheDir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			entries = append(entries, path)
		}
		return nil
	})
	if len(entries) == 0 {
		t.Fatal("cold run produced no cache entries")
	}
	for _, p := range entries {
		buf, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		buf[len(buf)/2] ^= 0xff
		if err := os.WriteFile(p, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cfg.Metrics = obs.New()
	damaged, err := Characterize(refs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if damaged.CacheHits != 0 {
		t.Fatalf("corrupt cache produced %d hits — corrupt entries were trusted", damaged.CacheHits)
	}
	// Every damaged entry's deletion must be visible, not silent.
	if got := cfg.Metrics.Counter("fcache.corrupt_deleted").Value(); got != int64(len(entries)) {
		t.Fatalf("fcache.corrupt_deleted = %d, want %d damaged entries", got, len(entries))
	}
	cfg.Metrics = nil
	datasetsBitIdentical(t, cold, damaged, "cold vs regenerated")

	// The regenerating run must also have healed the cache.
	healed, err := Characterize(refs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if healed.CacheHits != healed.UniqueIntervals {
		t.Fatalf("healed cache hit %d of %d", healed.CacheHits, healed.UniqueIntervals)
	}
	datasetsBitIdentical(t, cold, healed, "cold vs healed")
}

// TestCharacterizeDatasetArtifact pins the whole-dataset artifact: a
// repeat Characterize over a cache is served from one shard-kind entry
// — no interval vector read — bit-identically, with every unique
// interval reported as a cache hit and no caller's Refs aliasing
// another's.
func TestCharacterizeDatasetArtifact(t *testing.T) {
	refs, cfg := cacheTestSetup(t)
	cfg.CacheDir = t.TempDir()

	cold, err := Characterize(refs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHits != 0 {
		t.Fatalf("cold run reported %d hits from an empty cache", cold.CacheHits)
	}
	cfg.Metrics = obs.New()
	warm, err := Characterize(refs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	datasetsBitIdentical(t, cold, warm, "cold vs artifact-warm")
	if warm.CacheHits != warm.UniqueIntervals {
		t.Fatalf("artifact-warm run reported %d of %d hits", warm.CacheHits, warm.UniqueIntervals)
	}
	rep := cfg.Metrics.Snapshot()
	if got := rep.Counters["fcache.hits.shard"]; got != 1 {
		t.Fatalf("fcache.hits.shard = %d, want the 1 dataset artifact", got)
	}
	if got := rep.Counters["fcache.hits.vector"] + rep.Counters["fcache.misses.vector"]; got != 0 {
		t.Fatalf("artifact-warm run read %d interval vectors", got)
	}
	if &warm.Refs[0] == &cold.Refs[0] || &warm.Refs[0] == &refs[0] {
		t.Fatal("dataset Refs alias another caller's slice")
	}
}

// TestObservedRunsUseUnobservedArtifacts pins that observability never
// changes which code runs: what an unobserved call wrote serves the
// observed repeat, for Characterize and for Run alike.
func TestObservedRunsUseUnobservedArtifacts(t *testing.T) {
	refs, cfg := cacheTestSetup(t)
	cfg.CacheDir = t.TempDir()
	if _, err := Characterize(refs, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = obs.New()
	ds, err := Characterize(refs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Metrics.Counter("fcache.hits.shard").Value(); got != 1 || ds.CacheHits != ds.UniqueIntervals {
		t.Fatalf("observed Characterize: fcache.hits.shard = %d, %d of %d hits; want the unobserved artifact",
			got, ds.CacheHits, ds.UniqueIntervals)
	}

	reg := miniRegistry(t)
	rc := miniConfig()
	rc.CacheDir = t.TempDir()
	if _, err := Run(reg, rc, nil); err != nil {
		t.Fatal(err)
	}
	rc.Metrics = obs.New()
	if _, err := Run(reg, rc, nil); err != nil {
		t.Fatal(err)
	}
	if rep := rc.Metrics.Snapshot(); rep.Counters["engine.stages_resumed"] != 5 || rep.Counters["engine.stages_computed"] != 0 {
		t.Fatalf("observed Run resumed %d and computed %d stages, want 5 and 0",
			rep.Counters["engine.stages_resumed"], rep.Counters["engine.stages_computed"])
	}
}

// TestTimelineCacheBitIdentical pins the cached timeline path the same
// way: cold and warm runs must agree bit for bit with the uncached run,
// and a run at another maxPhases — a new timeline artifact over the same
// intervals — must be served by the vector tier and agree with its own
// uncached run.
func TestTimelineCacheBitIdentical(t *testing.T) {
	reg, err := bench.StandardRegistry()
	if err != nil {
		t.Fatal(err)
	}
	b := reg.All()[0]
	cfg := TestConfig()
	cfg.MaxIntervalsPerBenchmark = 6

	plain, err := AnalyzeTimeline(b, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	plain3, err := AnalyzeTimeline(b, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CacheDir = t.TempDir()
	cfg.Metrics = obs.New()
	cold, err := AnalyzeTimeline(b, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Metrics.Counter("engine.resumed.timeline").Value(); got != 0 {
		t.Fatalf("cold timeline resumed %d artifacts from an empty cache", got)
	}
	cfg.Metrics = obs.New()
	warm, err := AnalyzeTimeline(b, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Metrics.Counter("engine.resumed.timeline").Value(); got != 1 {
		t.Fatalf("warm timeline: engine.resumed.timeline = %d, want 1", got)
	}
	cfg.Metrics = obs.New()
	other, err := AnalyzeTimeline(b, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep := cfg.Metrics.Snapshot()
	if rep.Counters["engine.resumed.timeline"] != 0 || rep.Counters["fcache.hits.vector"] != int64(len(other.Phases)) {
		t.Fatalf("maxPhases 3 run: resumed %d timelines, %d vector hits; want 0 and all %d intervals",
			rep.Counters["engine.resumed.timeline"], rep.Counters["fcache.hits.vector"], len(other.Phases))
	}
	for _, pair := range [][2]*Timeline{{plain, cold}, {plain, warm}, {plain3, other}} {
		want, got := pair[0], pair[1]
		if want.Strip() != got.Strip() {
			t.Fatalf("timeline strips differ: %q vs %q", want.Strip(), got.Strip())
		}
		for i := range want.Vectors.Data {
			if math.Float64bits(want.Vectors.Data[i]) != math.Float64bits(got.Vectors.Data[i]) {
				t.Fatalf("timeline vector element %d differs", i)
			}
		}
	}
}
