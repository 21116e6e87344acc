package corpus

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
)

// testVec derives a deterministic dim-dimensional vector from a scalar
// key, spread out enough that distinct keys are far apart.
func testVec(key float64, dim int) []float64 {
	v := make([]float64, dim)
	for j := range v {
		v[j] = key + float64(j)*0.25 + key*float64(j%3)
	}
	return v
}

// makeBatch builds one suite's batch: perBench intervals for each of n
// benchmarks, plus one centroid, all at distinct keyed positions.
func makeBatch(dataset uint64, suite string, n, perBench, dim int, shift float64) Batch {
	b := Batch{Dataset: dataset, Params: dataset * 31, Seed: 1}
	for bi := 0; bi < n; bi++ {
		id := fmt.Sprintf("%s/b%d", suite, bi)
		for i := 0; i < perBench; i++ {
			b.Entries = append(b.Entries, Entry{
				Bench: id, Suite: suite, Kind: KindInterval, Index: i,
				Vector: testVec(shift+float64(bi)*10+float64(i), dim),
			})
		}
	}
	b.Entries = append(b.Entries, Entry{
		Kind: KindCentroid, Index: 0, Vector: testVec(shift+1000, dim),
	})
	return b
}

// queryBytes renders one query answer the way the CLI and service do.
func queryBytes(t *testing.T, c *Corpus, req QueryRequest) []byte {
	t.Helper()
	resp, err := c.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteResponse(&buf, resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestIngestReopenStats(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.IngestBatch(makeBatch(0xA, "SuiteA", 2, 3, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	if info.Skipped || info.Records != 7 || info.Intervals != 6 || info.Centroids != 1 {
		t.Fatalf("ingest info = %+v", info)
	}

	// A fresh handle sees the same corpus.
	c2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	want := Stats{Records: 7, Intervals: 6, Centroids: 1, Benches: 2,
		Suites: 1, Segments: 1, Ingests: 1, Dim: 4, NextSeq: 7}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

// TestIngestIdempotent: the dataset-hash ledger makes re-ingesting the
// same run a no-op — via the same handle or a fresh one.
func TestIngestIdempotent(t *testing.T) {
	dir := t.TempDir()
	m := obs.New()
	c, err := Open(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	b := makeBatch(0xA, "SuiteA", 2, 3, 4, 0)
	if _, err := c.IngestBatch(b); err != nil {
		t.Fatal(err)
	}
	before := queryBytes(t, c, QueryRequest{Op: "stats"})

	info, err := c.IngestBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Skipped || info.Records != 0 {
		t.Fatalf("re-ingest info = %+v, want skipped", info)
	}
	c2, err := Open(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	if info, err = c2.IngestBatch(b); err != nil || !info.Skipped {
		t.Fatalf("re-ingest via fresh handle: info = %+v, err = %v", info, err)
	}
	if after := queryBytes(t, c, QueryRequest{Op: "stats"}); !bytes.Equal(before, after) {
		t.Fatalf("stats changed across a skipped ingest:\n%s\nvs\n%s", before, after)
	}
	if got := m.Counter("corpus.ingest_skipped").Value(); got != 2 {
		t.Fatalf("corpus.ingest_skipped = %d, want 2", got)
	}
}

func TestIngestValidation(t *testing.T) {
	c, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]Batch{
		"no dataset hash": {Entries: []Entry{{Vector: []float64{1}}}},
		"empty batch":     {Dataset: 1},
		"zero dim":        {Dataset: 1, Entries: []Entry{{Kind: KindInterval}}},
		"ragged dims": {Dataset: 1, Entries: []Entry{
			{Vector: []float64{1, 2}}, {Vector: []float64{1}},
		}},
		"unknown kind": {Dataset: 1, Entries: []Entry{{Kind: 9, Vector: []float64{1}}}},
		"NaN value":    {Dataset: 1, Entries: []Entry{{Vector: []float64{1, math.NaN()}}}},
		"infinity":     {Dataset: 1, Entries: []Entry{{Vector: []float64{math.Inf(-1), 1}}}},
	}
	for name, b := range cases {
		if _, err := c.IngestBatch(b); err == nil {
			t.Fatalf("%s ingested cleanly", name)
		}
	}

	// Dimensionality is pinned by the first accepted batch.
	if _, err := c.IngestBatch(makeBatch(0xA, "S", 1, 1, 4, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestBatch(makeBatch(0xB, "S", 1, 1, 5, 0)); err == nil {
		t.Fatal("dim-5 batch entered a dim-4 corpus")
	}
}

// TestCompactPreservesAnswers is the tentpole invariant at store level:
// every query answers byte-identically before and after compaction, and
// the replaced segments are gone.
func TestCompactPreservesAnswers(t *testing.T) {
	dir := t.TempDir()
	m := obs.New()
	c, err := Open(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range []Batch{
		makeBatch(0xA, "SuiteA", 2, 4, 5, 0),
		makeBatch(0xB, "SuiteB", 3, 2, 5, 100),
		makeBatch(0xC, "SuiteC", 1, 5, 5, 200),
	} {
		if _, err := c.IngestBatch(b); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	queries := []QueryRequest{
		{Op: "stats"},
		{Op: "nearest", Ref: "SuiteA/b0#1", K: 4},
		{Op: "nearest", Vector: testVec(105, 5), K: 3},
		{Op: "uniqueness", Bench: "SuiteB/b1"},
		{Op: "novelty", Suite: "SuiteC", Radius: 2},
	}
	before := make([][]byte, len(queries))
	for i, q := range queries {
		before[i] = queryBytes(t, c, q)
	}

	info, err := c.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if info.Before != 3 || info.After != 1 || info.Records != 3*1+2*4+3*2+1*5 {
		t.Fatalf("compact info = %+v", info)
	}
	// Stats reports the collapsed layout, so compare it against the
	// expected segment-count change; everything else must be identical.
	for i, q := range queries {
		after := queryBytes(t, c, q)
		if q.Op == "stats" {
			continue
		}
		if !bytes.Equal(before[i], after) {
			t.Fatalf("query %+v changed across compaction:\n%s\nvs\n%s", q, before[i], after)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != 1 || st.Ingests != 3 || st.Records != 22 || st.NextSeq != 22 {
		t.Fatalf("post-compact stats = %+v", st)
	}
	if got := m.Counter("corpus.compactions").Value(); got != 1 {
		t.Fatalf("corpus.compactions = %d, want 1", got)
	}

	// A fresh handle answers identically too, and the directory holds
	// exactly the manifest and the one compacted segment.
	c2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries[1:] {
		if got := queryBytes(t, c2, q); !bytes.Equal(before[i+1], got) {
			t.Fatalf("fresh handle answers %+v differently", q)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("post-compact directory = %v, want MANIFEST + 1 segment", names)
	}

	// Compacting a single segment is a no-op.
	if info, err := c.Compact(); err != nil || info.Before != 1 || info.After != 1 {
		t.Fatalf("second compact: info = %+v, err = %v", info, err)
	}

	// Ingest after compaction keeps minting fresh segment names (the
	// persisted nextFile counter prevents collisions with swept files).
	if _, err := c.IngestBatch(makeBatch(0xD, "SuiteD", 1, 2, 5, 300)); err != nil {
		t.Fatal(err)
	}
	st, err = c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != 2 || st.Records != 25 {
		t.Fatalf("post-compact ingest stats = %+v", st)
	}
}

// TestSweep: Open removes old unreferenced segments and temp files, and
// leaves live segments, young strays and foreign files alone.
func TestSweep(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestBatch(makeBatch(0xA, "S", 1, 2, 3, 0)); err != nil {
		t.Fatal(err)
	}

	old := time.Now().Add(-2 * sweepAge)
	backdated := func(name string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte("stray"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
		return p
	}
	oldSeg := backdated(newSegmentName(99))
	oldTmp := backdated(".tmp-MANIFEST-123")
	youngSeg := filepath.Join(dir, newSegmentName(98))
	if err := os.WriteFile(youngSeg, []byte("young"), 0o644); err != nil {
		t.Fatal(err)
	}
	foreign := backdated("NOTES.txt")

	if _, err := Open(dir, nil); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{oldSeg, oldTmp} {
		if _, err := os.Stat(p); err == nil {
			t.Fatalf("%s survived the sweep", filepath.Base(p))
		}
	}
	for _, p := range []string{youngSeg, foreign, filepath.Join(dir, newSegmentName(0)), filepath.Join(dir, manifestName)} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("sweep removed %s: %v", filepath.Base(p), err)
		}
	}
}

// TestOpenReportsCorruptManifest: a damaged root is an error, not a
// silently emptied database.
func TestOpenReportsCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestBatch(makeBatch(0xA, "S", 1, 2, 3, 0)); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, manifestName)
	buf, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 1
	if err := os.WriteFile(p, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, nil); err == nil {
		t.Fatal("corrupt manifest opened cleanly")
	}
}

func TestCounters(t *testing.T) {
	m := obs.New()
	c, err := Open(t.TempDir(), m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestBatch(makeBatch(0xA, "S", 2, 3, 4, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestBatch(makeBatch(0xB, "S", 1, 1, 4, 50)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(QueryRequest{Op: "nearest", Vector: testVec(3, 4)}); err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("corpus.ingested").Value(); got != 9 {
		t.Fatalf("corpus.ingested = %d, want 9", got)
	}
	if got := m.Counter("corpus.segments").Value(); got != 2 {
		t.Fatalf("corpus.segments = %d, want 2", got)
	}
	if got := m.Counter("corpus.queries").Value(); got != 1 {
		t.Fatalf("corpus.queries = %d, want 1", got)
	}
	if got := m.Counter("corpus.scan_rows").Value(); got != 9 {
		t.Fatalf("corpus.scan_rows = %d, want 9", got)
	}
	if _, err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("corpus.segments").Value(); got != 1 {
		t.Fatalf("corpus.segments after compact = %d, want 1", got)
	}
	// A request refused before the lock, and an ingest refused before
	// it, wait for nothing.
	if _, err := c.Query(QueryRequest{Op: "nearest", K: -1}); err == nil {
		t.Fatal("k = -1 answered")
	}
	if _, err := c.IngestBatch(Batch{Dataset: 0xC}); err == nil {
		t.Fatal("an empty batch ingested")
	}
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	// One lock wait per acquisition: Open, two ingests, a query, the
	// compaction and Stats.
	if got := m.Histogram("corpus.lock_wait").Count(); got != 6 {
		t.Fatalf("corpus.lock_wait has %d observations, want 6", got)
	}
	if got := m.Histogram("corpus.query").Count(); got != 1 {
		t.Fatalf("corpus.query has %d observations, want 1", got)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open("", nil); err == nil {
		t.Fatal("empty directory opened cleanly")
	}
}
