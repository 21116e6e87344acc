package core

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/fcache"
	"repro/internal/obs"
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

// appendConfig is miniConfig with a cluster count the sub-roster (fewer
// sampled rows) can also fit.
func appendConfig() Config {
	cfg := miniConfig()
	cfg.NumClusters = 4
	cfg.NumProminent = 4
	return cfg
}

// readManifest returns the baseline manifest cfg's cache holds for cfg's
// sampling parameters, or nil.
func readManifest(t *testing.T, reg *bench.Registry, cfg Config) *baselineManifest {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cache, err := fcache.Open(cfg.CacheDir)
	if err != nil {
		t.Fatal(err)
	}
	man := &baselineManifest{}
	if !cache.GetBinary(newArtifactKeys(reg, cfg, 0).manifestKey(), man) {
		return nil
	}
	return man
}

// TestIncrementalAppendByteIdentical is the append path's golden
// invariant: extending a cached baseline by one benchmark must export
// byte-identically to the cold full-roster run — the delta path may only
// change where the rows come from, never what they are. It pins that the
// append took the delta characterize path and refit PCA and k-means, and
// that a rerun, which resumes the standard shard artifact, leaves the
// manifest alone.
func TestIncrementalAppendByteIdentical(t *testing.T) {
	reg := miniRegistry(t)
	sub := subRegistry(t, reg, "f2")
	cfg := appendConfig()

	cold, err := Run(reg, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := exportJSON(t, cold)

	inc := cfg
	inc.CacheDir = t.TempDir()
	if _, err := Run(sub, inc, nil); err != nil {
		t.Fatal(err)
	}
	if man := readManifest(t, reg, inc); man == nil || len(man.benches) != sub.Len() {
		t.Fatalf("baseline run left manifest %+v, want the %d-benchmark roster", man, sub.Len())
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
	for name, want := range map[string]int64{
		"engine.delta.characterize": 1,
		"engine.stages_delta":       1,
		"engine.computed.pca":       1,
		"engine.computed.kmeans":    1,
	} {
		if got := m.Counter(name).Value(); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
	if got := m.Counter("engine.delta_reused_rows").Value(); got == 0 {
		t.Fatal("append reused no baseline rows")
	}
	if man := readManifest(t, reg, inc); man == nil || len(man.benches) != reg.Len() {
		t.Fatalf("append left manifest %+v, want the %d-benchmark roster", man, reg.Len())
	}

	// Rerunning the baseline roster resumes its own shard artifact: no
	// manifest lookup, no delta, and the manifest still describes the
	// latest computed dataset (the full roster).
	m2 := obs.New()
	inc.Metrics = m2
	if _, err := Run(sub, inc, nil); err != nil {
		t.Fatal(err)
	}
	if got := m2.Counter("engine.resumed.characterize").Value(); got != 1 {
		t.Fatalf("rerun resumed characterize %d times, want 1", got)
	}
	if got := m2.Counter("fcache.hits.baseline").Value() + m2.Counter("fcache.misses.baseline").Value(); got != 0 {
		t.Fatalf("resumed rerun looked the manifest up %d times", got)
	}
	if man := readManifest(t, reg, inc); man == nil || len(man.benches) != reg.Len() {
		t.Fatalf("resumed rerun rewrote the manifest to %+v", man)
	}
}

// TestIncrementalShrinkRunsCold pins the extend-dataset precondition: a
// roster missing a baseline benchmark, or holding one whose behaviour
// changed under the same ID, is a different dataset, not an extension,
// so the run proceeds cold (and correct) with the plan reported
// inapplicable.
func TestIncrementalShrinkRunsCold(t *testing.T) {
	reg := miniRegistry(t)
	var bs []*bench.Benchmark
	for _, b := range reg.All() {
		phases := append([]bench.Phase(nil), b.Phases...)
		if b.Name == "f1" {
			phases[0].Behavior.Jitter *= 2
		}
		bs = append(bs, &bench.Benchmark{Name: b.Name, Suite: b.Suite, PaperIntervals: b.PaperIntervals,
			Layout: b.Layout, Phases: phases, Inputs: b.Inputs})
	}
	changed, err := bench.NewRegistry(bs)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name            string
		baseline, later *bench.Registry
	}{
		{"shrunken roster", reg, subRegistry(t, reg, "f2")},
		{"changed benchmark", subRegistry(t, reg, "f2"), changed},
	} {
		cfg := appendConfig()
		cfg.CacheDir = t.TempDir()
		if _, err := Run(tc.baseline, cfg, nil); err != nil {
			t.Fatal(err)
		}
		cold, err := Run(tc.later, appendConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}

		m := obs.New()
		cfg.Metrics = m
		res, err := Run(tc.later, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Counter("engine.delta_inapplicable").Value(); got != 1 {
			t.Fatalf("%s: engine.delta_inapplicable = %d, want 1", tc.name, got)
		}
		if got := m.Counter("engine.delta.characterize").Value(); got != 0 {
			t.Fatalf("%s: engine.delta.characterize = %d, want 0", tc.name, got)
		}
		if !bytes.Equal(exportJSON(t, cold), exportJSON(t, res)) {
			t.Fatalf("%s: cold-fallback export differs from the plain run", tc.name)
		}
	}
}

// TestIncrementalMissingBaselineShardRunsCold: a manifest whose shard
// artifact is gone cannot serve the delta path; the append characterizes
// cold, counts the fallback, and still exports the plain run's bytes.
func TestIncrementalMissingBaselineShardRunsCold(t *testing.T) {
	reg := miniRegistry(t)
	sub := subRegistry(t, reg, "f2")
	cfg := appendConfig()
	cold, err := Run(reg, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	cfg.CacheDir = t.TempDir()
	if _, err := Run(sub, cfg, nil); err != nil {
		t.Fatal(err)
	}
	eng, err := newEngine(reg, cfg, nil, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	eng.cache.Discard(eng.baselineKey(readManifest(t, reg, cfg)))

	m := obs.New()
	cfg.Metrics = m
	res, err := Run(reg, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("engine.delta_fallback.characterize").Value(); got != 1 {
		t.Fatalf("engine.delta_fallback.characterize = %d, want 1", got)
	}
	if got := m.Counter("engine.computed.characterize").Value(); got != 1 {
		t.Fatalf("engine.computed.characterize = %d, want 1", got)
	}
	if !bytes.Equal(exportJSON(t, cold), exportJSON(t, res)) {
		t.Fatal("fallback export differs from the plain run")
	}
}

// TestShardWorkersFeedDeltaRun: shard workers leave interval vectors,
// not a dataset of their own, so the run after them takes the path any
// cached run takes — here the delta path over a sub-roster baseline,
// reading the added benchmark's intervals from the workers' vectors.
func TestShardWorkersFeedDeltaRun(t *testing.T) {
	reg := miniRegistry(t)
	sub := subRegistry(t, reg, "f2")
	cfg := appendConfig()
	cold, err := Run(reg, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CacheDir = t.TempDir()
	if _, err := Run(sub, cfg, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := EncodeShard(reg, cfg, i, 2, nil); err != nil {
			t.Fatal(err)
		}
	}

	m := obs.New()
	cfg.Metrics = m
	res, err := Run(reg, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("engine.delta.characterize").Value(); got != 1 {
		t.Fatalf("engine.delta.characterize = %d, want 1", got)
	}
	if got := m.Counter("fcache.misses.vector").Value(); got != 0 {
		t.Fatalf("fcache.misses.vector = %d, want 0 (the shard workers cached every interval)", got)
	}
	if man := readManifest(t, reg, cfg); man == nil || len(man.benches) != reg.Len() {
		t.Fatalf("run left manifest %+v, want the %d-benchmark roster", man, reg.Len())
	}
	if !bytes.Equal(exportJSON(t, cold), exportJSON(t, res)) {
		t.Fatal("run after the shard workers differs from the cold run")
	}
}

// TestManifestWriteFailureCounted: a manifest that cannot be written
// costs the next append its delta path, never the run — the failure is
// counted and the export is unchanged.
func TestManifestWriteFailureCounted(t *testing.T) {
	reg := miniRegistry(t)
	cfg := appendConfig()
	cfg.CacheDir = t.TempDir()
	if _, err := Run(subRegistry(t, reg, "f2"), cfg, nil); err != nil {
		t.Fatal(err)
	}
	// Replace the manifest entry with a directory: the lookup misses and
	// the rename that would rewrite it fails.
	var manifests []string
	filepath.Walk(cfg.CacheDir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		buf, rerr := os.ReadFile(path)
		if rerr == nil && len(buf) > 6 && binary.LittleEndian.Uint16(buf[4:]) == fcache.KindBaseline {
			manifests = append(manifests, path)
		}
		return nil
	})
	if len(manifests) != 1 {
		t.Fatalf("found %d manifest entries, want 1", len(manifests))
	}
	if err := os.Remove(manifests[0]); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(manifests[0], 0o755); err != nil {
		t.Fatal(err)
	}

	cold, err := Run(reg, appendConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.New()
	cfg.Metrics = m
	res, err := Run(reg, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("engine.manifest_write_errors").Value(); got != 1 {
		t.Fatalf("engine.manifest_write_errors = %d, want 1", got)
	}
	if !bytes.Equal(exportJSON(t, cold), exportJSON(t, res)) {
		t.Fatal("export differs after a failed manifest write")
	}
}

// oldFormatManifest encodes m in the earlier manifest format, which
// appended the baseline's basis and clustering identities (a 24-byte
// tail) to today's layout.
func oldFormatManifest(m *baselineManifest) []byte {
	buf, _ := m.MarshalBinary()
	buf = binary.LittleEndian.AppendUint64(buf, 0x1111)
	buf = appendU32(buf, m.rows)
	buf = binary.LittleEndian.AppendUint64(buf, 0x2222)
	return appendU32(buf, m.rows)
}

// testManifest is the manifest the codec tests and fuzz seeds start from.
func testManifest() *baselineManifest {
	return &baselineManifest{
		rows: 123,
		benches: []manifestBench{
			{id: "SuiteA/s1", hash: 0xdeadbeef, rows: 40},
			{id: "SuiteB/f1", hash: 0xfeedface, rows: 83},
		},
	}
}

// TestBaselineManifestCodec round-trips the manifest and rejects the
// classic decoder traps — truncation, trailing garbage, a row total
// that disagrees with the roster — plus a manifest in the earlier
// format, so a cache written by an older build characterizes cold.
func TestBaselineManifestCodec(t *testing.T) {
	in := testManifest()
	buf, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	out := &baselineManifest{}
	if err := out.UnmarshalBinary(buf); err != nil {
		t.Fatal(err)
	}
	if out.rows != in.rows || len(out.benches) != len(in.benches) ||
		out.benches[0] != in.benches[0] || out.benches[1] != in.benches[1] {
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
	if err := (&baselineManifest{}).UnmarshalBinary(oldFormatManifest(in)); err == nil {
		t.Fatal("earlier-format manifest decoded")
	}
	skewed := testManifest()
	skewed.rows++
	sbuf, _ := skewed.MarshalBinary()
	if err := (&baselineManifest{}).UnmarshalBinary(sbuf); err == nil {
		t.Fatal("manifest whose row total disagrees with its roster decoded")
	}
}
