package core

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

func exportJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// corruptCacheEntries flips one payload byte in every cache entry file and
// returns how many entries it damaged.
func corruptCacheEntries(t *testing.T, dir string) int {
	t.Helper()
	var entries []string
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			entries = append(entries, path)
		}
		return nil
	})
	if len(entries) == 0 {
		t.Fatal("cache holds no entries to corrupt")
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
	return len(entries)
}

// TestShardMergeByteIdentical is the engine's load-bearing invariant: an
// n-shard run — shards characterized in separate invocations, then merged
// by the analysis run — must equal the plain single-process run byte for
// byte, for n in {1, 3}, at two worker counts (merging at a third), both
// on the first merge and on a repeat over the same cache.
func TestShardMergeByteIdentical(t *testing.T) {
	reg := miniRegistry(t)
	ref, err := Run(reg, miniConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	refJSON := exportJSON(t, ref)

	for _, n := range []int{1, 3} {
		for _, workers := range []int{1, 4} {
			cacheDir := t.TempDir()
			// Worker half: one EncodeShard invocation per shard, like
			// `phasechar -shard i/n shard` in n processes.
			for i := 0; i < n; i++ {
				cfg := miniConfig()
				cfg.Workers = workers
				cfg.CacheDir = cacheDir
				_, info, err := EncodeShard(reg, cfg, i, n, nil)
				if err != nil {
					t.Fatal(err)
				}
				if info.Resumed {
					t.Fatalf("shard %d/%d claimed an artifact in a cold cache", i, n)
				}
				if info.UniqueIntervals == 0 {
					t.Fatalf("shard %d/%d characterized nothing", i, n)
				}
			}
			// Merge half, twice over the same cache: the first merge reads
			// the fresh shard artifacts, the repeat reads them again.
			for _, state := range []string{"first", "repeat"} {
				ctx := fmt.Sprintf("%d shards, %d workers, %s merge", n, workers, state)
				cfg := miniConfig()
				cfg.Workers = 5 - workers // merge at a different parallelism than the shards
				cfg.CacheDir = cacheDir
				cfg.Shard = n
				cfg.Metrics = obs.New()
				got, err := Run(reg, cfg, nil)
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				datasetsBitIdentical(t, ref.Dataset, got.Dataset, ctx)
				if !bytes.Equal(refJSON, exportJSON(t, got)) {
					t.Fatalf("%s: exported JSON differs from the single-process run", ctx)
				}
				if resumed := cfg.Metrics.Counter("engine.shards_resumed").Value(); resumed != int64(n) {
					t.Fatalf("%s: served %d of %d shards from artifacts", ctx, resumed, n)
				}
			}
		}
	}
}

// TestMergeComputesMissingShards drops one worker invocation from the
// shard half and requires the merge run to compute the hole itself — a
// partial shard fleet degrades to local work, never to failure.
func TestMergeComputesMissingShards(t *testing.T) {
	reg := miniRegistry(t)
	ref, err := Run(reg, miniConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}

	cacheDir := t.TempDir()
	for _, i := range []int{0, 2} { // shard 1 never runs
		cfg := miniConfig()
		cfg.CacheDir = cacheDir
		if _, _, err := EncodeShard(reg, cfg, i, 3, nil); err != nil {
			t.Fatal(err)
		}
	}

	cfg := miniConfig()
	cfg.CacheDir = cacheDir
	cfg.Shard = 3
	cfg.Metrics = obs.New()
	got, err := Run(reg, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resumed := cfg.Metrics.Counter("engine.shards_resumed").Value(); resumed != 2 {
		t.Fatalf("engine.shards_resumed = %d, want the 2 prebuilt shards", resumed)
	}
	if computed := cfg.Metrics.Counter("engine.shards_computed").Value(); computed != 1 {
		t.Fatalf("engine.shards_computed = %d, want the 1 missing shard", computed)
	}
	datasetsBitIdentical(t, ref.Dataset, got.Dataset, "partial shard fleet")
	if !bytes.Equal(exportJSON(t, ref), exportJSON(t, got)) {
		t.Fatal("merge over a partial shard fleet changed the exported result")
	}
}

// TestResumeSkipsStages reruns the pipeline with the same config over a
// populated cache and requires that zero stages recompute: every stage is
// served from its artifact, visibly (resumed counters and spans), and the
// result stays byte-identical.
func TestResumeSkipsStages(t *testing.T) {
	reg := miniRegistry(t)
	cfg := miniConfig()
	cfg.CacheDir = t.TempDir()
	cfg.Metrics = obs.New()
	first, err := Run(reg, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	firstRep := cfg.Metrics.Snapshot()
	if got := firstRep.Counters["engine.stages_computed"]; got != 5 {
		t.Fatalf("cold run computed %d stages, want 5 (characterize pca scores kmeans prominent)", got)
	}
	if got := firstRep.Counters["engine.stages_resumed"]; got != 0 {
		t.Fatalf("cold run resumed %d stages from an empty cache", got)
	}

	warm := miniConfig()
	warm.CacheDir = cfg.CacheDir
	warm.Metrics = obs.New()
	second, err := Run(reg, warm, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := warm.Metrics.Snapshot()
	if got := rep.Counters["engine.stages_computed"]; got != 0 {
		t.Fatalf("resumed run recomputed %d stages", got)
	}
	if got := rep.Counters["engine.stages_resumed"]; got != 5 {
		t.Fatalf("resumed run resumed %d stages, want all 5", got)
	}
	resumedSpans := map[string]bool{}
	for _, s := range rep.Spans {
		if s.Resumed {
			resumedSpans[s.Stage] = true
		}
	}
	for _, stage := range []string{"characterize", "pca", "scores", "kmeans", "prominent"} {
		if !resumedSpans[stage] {
			t.Fatalf("stage %q has no resumed span in %v", stage, rep.Spans)
		}
	}
	datasetsBitIdentical(t, first.Dataset, second.Dataset, "computed vs resumed")
	if !bytes.Equal(exportJSON(t, first), exportJSON(t, second)) {
		t.Fatal("resume changed the exported result")
	}
}

// TestCorruptStageArtifactRegenerates damages every cached artifact —
// interval vectors and stage artifacts alike — and requires the resumed
// rerun to recompute everything (visibly deleting the bad entries),
// reproduce the result bit for bit, and heal the cache for the run after.
func TestCorruptStageArtifactRegenerates(t *testing.T) {
	reg := miniRegistry(t)
	cfg := miniConfig()
	cfg.CacheDir = t.TempDir()
	first, err := Run(reg, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	damagedEntries := corruptCacheEntries(t, cfg.CacheDir)

	damaged := miniConfig()
	damaged.CacheDir = cfg.CacheDir
	damaged.Metrics = obs.New()
	redone, err := Run(reg, damaged, nil)
	if err != nil {
		t.Fatalf("corrupt stage artifacts must regenerate, not fail: %v", err)
	}
	rep := damaged.Metrics.Snapshot()
	if got := rep.Counters["engine.stages_resumed"]; got != 0 {
		t.Fatalf("run trusted %d corrupt stage artifacts", got)
	}
	if got := rep.Counters["engine.stages_computed"]; got != 5 {
		t.Fatalf("run recomputed %d stages, want 5", got)
	}
	if got := rep.Counters["fcache.corrupt_deleted"]; got != int64(damagedEntries) {
		t.Fatalf("fcache.corrupt_deleted = %d, want %d damaged entries", got, damagedEntries)
	}
	datasetsBitIdentical(t, first.Dataset, redone.Dataset, "computed vs regenerated")
	if !bytes.Equal(exportJSON(t, first), exportJSON(t, redone)) {
		t.Fatal("regeneration changed the exported result")
	}

	// The regenerating run rewrote every artifact: the next resume is whole.
	healed := miniConfig()
	healed.CacheDir = cfg.CacheDir
	healed.Metrics = obs.New()
	if _, err := Run(reg, healed, nil); err != nil {
		t.Fatal(err)
	}
	if got := healed.Metrics.Counter("engine.stages_resumed").Value(); got != 5 {
		t.Fatalf("healed cache resumed %d stages, want 5", got)
	}
}

// TestTimelineResume pins the per-benchmark analogue: a second
// AnalyzeTimeline over the same cache serves the whole analysis from its
// stage artifact, bit-identically.
func TestTimelineResume(t *testing.T) {
	reg := miniRegistry(t)
	b := reg.All()[1] // the two-phase benchmark
	cfg := miniConfig()
	cfg.CacheDir = t.TempDir()
	cfg.Metrics = obs.New()
	first, err := AnalyzeTimeline(b, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep := cfg.Metrics.Snapshot(); rep.Counters["engine.resumed.timeline"] != 0 || rep.Counters["kmeans.selectk_fits"] == 0 {
		t.Fatalf("first timeline did not compute: %v", rep.Counters)
	}

	cfg.Metrics = obs.New()
	resumed, err := AnalyzeTimeline(b, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep := cfg.Metrics.Snapshot()
	if got := rep.Counters["engine.resumed.timeline"]; got != 1 {
		t.Fatalf("engine.resumed.timeline = %d, want 1", got)
	}
	if got := rep.Counters["kmeans.selectk_fits"]; got != 0 {
		t.Fatalf("resumed timeline still ran %d SelectK fits", got)
	}
	if first.Strip() != resumed.Strip() {
		t.Fatalf("timeline strips differ: %q vs %q", first.Strip(), resumed.Strip())
	}
	if first.NumPhases != resumed.NumPhases || first.Transitions != resumed.Transitions {
		t.Fatalf("timeline shape differs: %d/%d vs %d/%d phases/transitions",
			first.NumPhases, first.Transitions, resumed.NumPhases, resumed.Transitions)
	}
	for i := range first.Vectors.Data {
		if math.Float64bits(first.Vectors.Data[i]) != math.Float64bits(resumed.Vectors.Data[i]) {
			t.Fatalf("timeline vector element %d differs after resume", i)
		}
	}
}

// TestShardArtifactRoundTrip pins the shard codec directly: encode,
// decode, and re-encode must agree, and a truncated payload must be
// rejected rather than decoded into garbage.
func TestShardArtifactRoundTrip(t *testing.T) {
	reg := miniRegistry(t)
	cfg := miniConfig()
	cfg.CacheDir = t.TempDir()
	cfg.Shard = 3
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	refs := SampleRefs(reg, cfg)
	eng, err := newEngine(reg, cfg, refs, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	art := &coveredShard{work: eng.planShards(refs, 3)[0].work}
	if _, err := art.compute(cfg, nil); err != nil {
		t.Fatal(err)
	}
	buf, err := art.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back shardArtifact
	if err := back.UnmarshalBinary(buf); err != nil {
		t.Fatal(err)
	}
	buf2, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, buf2) {
		t.Fatal("shard artifact does not round-trip byte-identically")
	}
	if back.uniqueCount() != art.uniqueCount() || back.instructions != art.instructions {
		t.Fatalf("round trip changed totals: %d/%d vs %d/%d",
			back.uniqueCount(), back.instructions, art.uniqueCount(), art.instructions)
	}
	for cut := 0; cut < len(buf); cut += 7 {
		var bad shardArtifact
		if err := bad.UnmarshalBinary(buf[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", cut)
		}
	}
}

// TestShardValidation pins the guard rails of the workflow.
func TestShardValidation(t *testing.T) {
	reg := miniRegistry(t)
	for _, coords := range [][2]int{{3, 3}, {-1, 3}, {0, 0}} {
		if _, _, err := EncodeShard(reg, miniConfig(), coords[0], coords[1], nil); err == nil {
			t.Fatalf("out-of-range shard %d/%d encoded", coords[0], coords[1])
		}
	}
	cfg := miniConfig()
	cfg.Shard = 3
	if err := cfg.Validate(); err == nil {
		t.Fatal("sharded run without a cache directory validated")
	}
}
