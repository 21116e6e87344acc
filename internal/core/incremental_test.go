package core

import (
	"bytes"
	"testing"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/stats"
)

// subRegistry returns miniRegistry minus the named benchmark — the
// "dataset before the append" in the incremental tests.
func subRegistry(t *testing.T, reg *bench.Registry, drop string) *bench.Registry {
	t.Helper()
	var keep []*bench.Benchmark
	for _, b := range reg.All() {
		if b.Name != drop {
			keep = append(keep, b)
		}
	}
	if len(keep) == reg.Len() {
		t.Fatalf("benchmark %q not in registry", drop)
	}
	sub, err := bench.NewRegistry(keep)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// TestIncrementalAppendByteIdentical is the incremental mode's golden
// invariant: with both tolerances at zero, extending a cached baseline
// by one benchmark must export byte-identically to the cold full-roster
// run — the delta path may only change where the rows come from, never
// what they are. It also pins that the append actually took the delta
// characterize path and that a re-run over the refreshed baseline
// (zero new benchmarks) stays identical.
func TestIncrementalAppendByteIdentical(t *testing.T) {
	reg := miniRegistry(t)
	cfg := miniConfig()
	cfg.NumClusters = 4 // the sub-roster has fewer sampled rows
	cfg.NumProminent = 4

	cold, err := Run(reg, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := exportJSON(t, cold)

	inc := cfg
	inc.CacheDir = t.TempDir()
	inc.Incremental = IncrementalSpec{Enabled: true} // thresholds 0: exact
	if _, err := Run(subRegistry(t, reg, "f2"), inc, nil); err != nil {
		t.Fatal(err)
	}

	m := obs.New()
	inc.Metrics = m
	res, err := Run(reg, inc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := exportJSON(t, res); !bytes.Equal(want, got) {
		t.Fatal("incremental append export differs from the cold run")
	}
	if got := m.Counter("engine.delta.characterize").Value(); got != 1 {
		t.Fatalf("engine.delta.characterize = %d, want 1", got)
	}
	if got := m.Counter("engine.delta_fallback.pca").Value(); got != 1 {
		t.Fatalf("engine.delta_fallback.pca = %d, want 1 (zero drift threshold disables the frozen basis)", got)
	}
	if got := m.Counter("engine.delta_reused_rows").Value(); got == 0 {
		t.Fatal("append reused no baseline rows")
	}

	// The append refreshed the baseline; a rerun extends by nothing and
	// must reuse every row.
	m2 := obs.New()
	inc.Metrics = m2
	res2, err := Run(reg, inc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := exportJSON(t, res2); !bytes.Equal(want, got) {
		t.Fatal("rerun over the refreshed baseline export differs")
	}
	if got := m2.Counter("engine.delta_reused_rows").Value(); got != int64(len(res2.Dataset.Refs)) {
		// delta_reused_rows counts unique intervals, which can be fewer
		// than refs; it must at least cover every unique row.
		if got != int64(res2.Dataset.UniqueIntervals) {
			t.Fatalf("rerun reused %d rows, want %d", got, res2.Dataset.UniqueIntervals)
		}
	}
}

// TestIncrementalFrozenFastPath pins the approximate regime: with
// generous tolerances the append keeps the cached eigenbasis, projects
// through it, and warm-starts k-means from the cached centroids — every
// analysis stage reports the delta path.
func TestIncrementalFrozenFastPath(t *testing.T) {
	reg := miniRegistry(t)
	cfg := miniConfig()
	cfg.NumClusters = 4
	cfg.NumProminent = 4
	cfg.CacheDir = t.TempDir()
	cfg.Incremental = IncrementalSpec{Enabled: true, MaxPCADrift: 1e6, MaxCentroidShift: 1e6}
	if _, err := Run(subRegistry(t, reg, "f2"), cfg, nil); err != nil {
		t.Fatal(err)
	}

	m := obs.New()
	cfg.Metrics = m
	res, err := Run(reg, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"engine.delta.characterize", "engine.delta.pca", "engine.delta.scores", "engine.delta.kmeans"} {
		if got := m.Counter(c).Value(); got != 1 {
			t.Fatalf("%s = %d, want 1", c, got)
		}
	}
	if got := m.Counter("kmeans.refines").Value(); got != 1 {
		t.Fatalf("kmeans.refines = %d, want 1", got)
	}
	if got := m.Counter("engine.stages_delta").Value(); got != 4 {
		t.Fatalf("engine.stages_delta = %d, want 4", got)
	}
	if res.NumPCs < 1 || res.Clusters.K != cfg.NumClusters {
		t.Fatalf("frozen-path result malformed: %d PCs, k=%d", res.NumPCs, res.Clusters.K)
	}
	if len(res.Clusters.Assignments) != len(res.Dataset.Refs) {
		t.Fatal("frozen-path clustering does not cover the extended dataset")
	}
}

// TestIncrementalDriftFallback pins the drift detector: a vanishing
// drift tolerance rejects the frozen basis for any genuinely new rows,
// the exact stages run instead, and the result is byte-identical to the
// cold run — the tolerance gates performance, never correctness.
func TestIncrementalDriftFallback(t *testing.T) {
	reg := miniRegistry(t)
	cfg := miniConfig()
	cfg.NumClusters = 4
	cfg.NumProminent = 4

	cold, err := Run(reg, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := exportJSON(t, cold)

	inc := cfg
	inc.CacheDir = t.TempDir()
	inc.Incremental = IncrementalSpec{Enabled: true, MaxPCADrift: 1e-12, MaxCentroidShift: 1e6}
	if _, err := Run(subRegistry(t, reg, "f2"), inc, nil); err != nil {
		t.Fatal(err)
	}

	m := obs.New()
	inc.Metrics = m
	res, err := Run(reg, inc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("engine.delta_fallback.pca").Value(); got != 1 {
		t.Fatalf("engine.delta_fallback.pca = %d, want 1", got)
	}
	if got := m.Counter("engine.delta.pca").Value(); got != 0 {
		t.Fatalf("engine.delta.pca = %d, want 0 after drift fallback", got)
	}
	if got := exportJSON(t, res); !bytes.Equal(want, got) {
		t.Fatal("drift-fallback export differs from the cold run")
	}
}

// TestIncrementalShrinkRunsCold pins the extend-dataset precondition: a
// roster missing a baseline benchmark is a different dataset, not an
// extension, so the run proceeds cold (and correct) with the plan
// reported inapplicable.
func TestIncrementalShrinkRunsCold(t *testing.T) {
	reg := miniRegistry(t)
	sub := subRegistry(t, reg, "f2")
	cfg := miniConfig()
	cfg.NumClusters = 4
	cfg.NumProminent = 4
	cfg.CacheDir = t.TempDir()
	cfg.Incremental = IncrementalSpec{Enabled: true}
	if _, err := Run(reg, cfg, nil); err != nil {
		t.Fatal(err)
	}

	coldCfg := miniConfig()
	coldCfg.NumClusters = 4
	coldCfg.NumProminent = 4
	cold, err := Run(sub, coldCfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	m := obs.New()
	cfg.Metrics = m
	res, err := Run(sub, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("engine.delta_inapplicable").Value(); got != 1 {
		t.Fatalf("engine.delta_inapplicable = %d, want 1", got)
	}
	if got := m.Counter("engine.delta.characterize").Value(); got != 0 {
		t.Fatalf("engine.delta.characterize = %d, want 0 for a shrunken roster", got)
	}
	if !bytes.Equal(exportJSON(t, cold), exportJSON(t, res)) {
		t.Fatal("cold-fallback export differs from the plain run")
	}
}

// TestIncrementalRejectsSharding pins the config contract: incremental
// mode describes a single-process dataset and must refuse to combine
// with sharding, and it needs a cache to live in.
func TestIncrementalRejectsSharding(t *testing.T) {
	cfg := miniConfig()
	cfg.Incremental = IncrementalSpec{Enabled: true}
	if err := cfg.Validate(); err == nil {
		t.Fatal("incremental without a cache directory validated")
	}
	cfg.CacheDir = t.TempDir()
	cfg.Shard = ShardSpec{Index: 0, Count: 2}
	if err := cfg.Validate(); err == nil {
		t.Fatal("incremental with sharding validated")
	}
	cfg.Shard = ShardSpec{}
	cfg.Incremental.MaxPCADrift = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative drift tolerance validated")
	}
}

// TestBaselineManifestCodec round-trips the manifest and rejects the
// classic decoder traps: truncation and trailing garbage.
func TestBaselineManifestCodec(t *testing.T) {
	in := &baselineManifest{
		rows:       123,
		shardCount: 3,
		benches: []manifestBench{
			{id: "SuiteA/s1", hash: 0xdeadbeef, rows: 40},
			{id: "SuiteB/f1", hash: 0xfeedface, rows: 83},
		},
		basisBehavior:   0x1111,
		basisRows:       120,
		clusterBehavior: 0x2222,
		clusterRows:     123,
	}
	buf, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	out := &baselineManifest{}
	if err := out.UnmarshalBinary(buf); err != nil {
		t.Fatal(err)
	}
	if out.rows != in.rows || out.shardCount != in.shardCount ||
		len(out.benches) != len(in.benches) ||
		out.benches[1] != in.benches[1] ||
		out.basisBehavior != in.basisBehavior || out.basisRows != in.basisRows ||
		out.clusterBehavior != in.clusterBehavior || out.clusterRows != in.clusterRows {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
	for cut := 1; cut < len(buf); cut += 7 {
		if err := (&baselineManifest{}).UnmarshalBinary(buf[:len(buf)-cut]); err == nil {
			t.Fatalf("truncation by %d bytes decoded", cut)
		}
	}
	if err := (&baselineManifest{}).UnmarshalBinary(append(buf, 0)); err == nil {
		t.Fatal("trailing byte decoded")
	}
}

// TestFoldTimelineStats pins the merge-able interval statistics: a fold
// is idempotent per interval identity, a deeper timeline folds exactly
// the intervals it adds, and the accumulator matches a direct pass over
// the union of observed rows.
func TestFoldTimelineStats(t *testing.T) {
	b := miniRegistry(t).All()[1] // s2: two phases, 200 paper intervals
	cfg := miniConfig()
	cfg.CacheDir = t.TempDir()

	tl, err := AnalyzeTimeline(b, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	folded, run, err := FoldTimelineStats(b, cfg, tl)
	if err != nil {
		t.Fatal(err)
	}
	if folded == 0 || int64(folded) != run.Count {
		t.Fatalf("first fold: folded %d, accumulator holds %d", folded, run.Count)
	}

	again, run2, err := FoldTimelineStats(b, cfg, tl)
	if err != nil {
		t.Fatal(err)
	}
	if again != 0 || run2.Count != run.Count {
		t.Fatalf("refold: folded %d (want 0), count %d (want %d)", again, run2.Count, run.Count)
	}

	// A deeper timeline re-derives every interval's behavior at the new
	// total, so its identities are (in general) fresh; the accumulator
	// must grow by exactly the unseen ones and keep the old mass.
	deep := cfg
	deep.MaxIntervalsPerBenchmark = 2 * cfg.MaxIntervalsPerBenchmark
	dtl, err := AnalyzeTimeline(b, deep, 4)
	if err != nil {
		t.Fatal(err)
	}
	more, run3, err := FoldTimelineStats(b, deep, dtl)
	if err != nil {
		t.Fatal(err)
	}
	if run3.Count != run.Count+int64(more) {
		t.Fatalf("deep fold: count %d, want %d+%d", run3.Count, run.Count, more)
	}

	want := stats.NewRunning(tl.Vectors.Cols)
	for i := 0; i < tl.Vectors.Rows; i++ {
		if err := want.Observe(tl.Vectors.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := run.Stats()
	ref := want.Stats()
	for j := range ref.Mean {
		if got.Mean[j] != ref.Mean[j] {
			t.Fatalf("col %d mean %g != direct %g", j, got.Mean[j], ref.Mean[j])
		}
	}

	if _, _, err := FoldTimelineStats(b, miniConfig(), tl); err == nil {
		t.Fatal("fold without a cache directory succeeded")
	}
}
