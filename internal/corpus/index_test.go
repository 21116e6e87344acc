package corpus

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"
)

// openWith builds a corpus in a temp dir from the given batches.
func openWith(t testing.TB, batches ...Batch) *Corpus {
	t.Helper()
	c, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		if _, err := c.IngestBatch(b); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	return c
}

// testIndex exposes the in-memory index of c.
func testIndex(t testing.TB, c *Corpus) *index {
	t.Helper()
	c.lock()
	s, err := c.snapshotLocked()
	c.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	return s.ix
}

// naiveNearest is the obviously-correct reference: full scan with
// per-row squared distances, sorted by (d2, row).
func naiveNearest(ix *index, qn []float64, k int, skip func(int) bool) []candidate {
	var all []candidate
	for row := 0; row < len(ix.entries); row++ {
		if skip != nil && skip(row) {
			continue
		}
		rv := ix.norm.Row(row)
		d2 := 0.0
		for j, q := range qn {
			d := q - rv[j]
			d2 += d * d
		}
		all = append(all, candidate{d2: d2, row: row})
	}
	sort.Slice(all, func(i, j int) bool {
		return all[i].d2 < all[j].d2 || (all[i].d2 == all[j].d2 && all[i].row < all[j].row)
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// lcg is a tiny deterministic generator for test vectors.
type lcg uint64

func (g *lcg) next() float64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return float64(*g>>11) / float64(1<<53)
}

// randomBatch fills a batch with n interval rows of PRNG noise.
func randomBatch(dataset uint64, n, dim int, g *lcg) Batch {
	b := Batch{Dataset: dataset, Seed: 1}
	for i := 0; i < n; i++ {
		v := make([]float64, dim)
		for j := range v {
			v[j] = g.next() * 10
		}
		b.Entries = append(b.Entries, Entry{
			Bench: fmt.Sprintf("S/b%d", i%7), Suite: "S",
			Kind: KindInterval, Index: i, Vector: v,
		})
	}
	return b
}

// TestNearestMatchesNaiveScan: the blocked kernel scan returns exactly
// the rows (and order) of the brute-force reference, across block
// boundaries, with and without a benchmark excluded.
func TestNearestMatchesNaiveScan(t *testing.T) {
	g := lcg(7)
	// 600 rows spans 3 scan blocks of 256.
	c := openWith(t, randomBatch(0xA, 600, 9, &g))
	ix := testIndex(t, c)
	for name, exclude := range map[string]string{"none": "", "by-bench": "S/b3"} {
		key, skip := noKey, func(int) bool { return false }
		if exclude != "" {
			key = ix.benchKey[ix.byBench[exclude][0]]
			skip = func(i int) bool { return ix.entries[i].bench == exclude }
		}
		for q := 0; q < 5; q++ {
			qn := make([]float64, 9)
			for j := range qn {
				qn[j] = g.next()*4 - 2
			}
			for _, k := range []int{1, 5, 17} {
				got, scanned := ix.nearest(qn, k, 0, key)
				if scanned != 600 {
					t.Fatalf("exact scan visited %d rows, want 600", scanned)
				}
				want := naiveNearest(ix, qn, k, skip)
				if len(got) != len(want) {
					t.Fatalf("skip=%s k=%d: %d hits, want %d", name, k, len(got), len(want))
				}
				for i := range want {
					if got[i].row != want[i].row {
						t.Fatalf("skip=%s k=%d hit %d: row %d, want %d", name, k, i, got[i].row, want[i].row)
					}
					if math.Abs(got[i].d2-want[i].d2) > 1e-9*(1+want[i].d2) {
						t.Fatalf("skip=%s k=%d hit %d: d2 %g, want %g", name, k, i, got[i].d2, want[i].d2)
					}
				}
			}
		}
	}
}

// TestNearestTieBreak: identical vectors resolve to the oldest record
// (lowest sequence number), deterministically.
func TestNearestTieBreak(t *testing.T) {
	b := Batch{Dataset: 0xA, Seed: 1}
	for i := 0; i < 6; i++ {
		b.Entries = append(b.Entries, Entry{
			Bench: "S/dup", Suite: "S", Kind: KindInterval, Index: i,
			Vector: []float64{1, 2, 3}, // all identical
		})
	}
	b.Entries = append(b.Entries, Entry{
		Bench: "S/far", Suite: "S", Kind: KindInterval, Index: 0,
		Vector: []float64{100, 200, 300},
	})
	c := openWith(t, b)
	ix := testIndex(t, c)
	got, _ := ix.nearest(ix.normalize([]float64{1, 2, 3}), 4, 0, noKey)
	for i, cd := range got {
		if cd.row != i {
			t.Fatalf("tie hit %d is row %d, want %d (oldest-first)", i, cd.row, i)
		}
	}
}

// TestUniquenessGeometry: a benchmark alone in its region is fully
// unique; two overlapping benchmarks erase each other's uniqueness; a
// benchmark's own duplicate rows must not count as neighbors.
func TestUniquenessGeometry(t *testing.T) {
	b := Batch{Dataset: 0xA, Seed: 1}
	add := func(bench, suite string, idx int, v []float64) {
		b.Entries = append(b.Entries, Entry{Bench: bench, Suite: suite, Kind: KindInterval, Index: idx, Vector: v})
	}
	// "lonely" sits far away; "twinA"/"twinB" coincide; lonely's rows
	// also coincide with each other (self-similarity is not a neighbor).
	add("X/lonely", "X", 0, []float64{100, 100})
	add("X/lonely", "X", 1, []float64{100, 100})
	add("Y/twinA", "Y", 0, []float64{0, 0})
	add("Y/twinB", "Y", 0, []float64{0, 0})
	c := openWith(t, b)

	u, err := c.Query(QueryRequest{Op: "uniqueness", Bench: "X/lonely", Radius: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if u.Uniqueness.Uniqueness != 1 || u.Uniqueness.Rows != 2 {
		t.Fatalf("lonely uniqueness = %+v, want 1.0 over 2 rows", u.Uniqueness)
	}
	for _, bench := range []string{"Y/twinA", "Y/twinB"} {
		u, err := c.Query(QueryRequest{Op: "uniqueness", Bench: bench, Radius: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if u.Uniqueness.Uniqueness != 0 {
			t.Fatalf("%s uniqueness = %+v, want 0 (its twin is within radius)", bench, u.Uniqueness)
		}
	}

	// Novelty excludes same-suite neighbors: the twins share suite Y, so
	// against the rest of the corpus both are novel.
	nv, err := c.Query(QueryRequest{Op: "novelty", Suite: "Y", Radius: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if nv.Novelty.Novelty != 1 || nv.Novelty.Rows != 2 {
		t.Fatalf("suite Y novelty = %+v, want 1.0 over 2 rows", nv.Novelty)
	}
	if len(nv.Novelty.Benches) != 2 || nv.Novelty.Benches[0].Bench != "Y/twinA" {
		t.Fatalf("novelty breakdown = %+v, want both benches sorted", nv.Novelty.Benches)
	}

	// Centroids never count as uniqueness neighbors: add one exactly on
	// top of lonely and re-check.
	b2 := Batch{Dataset: 0xB, Seed: 1, Entries: []Entry{
		{Kind: KindCentroid, Index: 0, Vector: []float64{100, 100}},
	}}
	if _, err := c.IngestBatch(b2); err != nil {
		t.Fatal(err)
	}
	u, err = c.Query(QueryRequest{Op: "uniqueness", Bench: "X/lonely", Radius: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if u.Uniqueness.Uniqueness != 1 {
		t.Fatalf("a centroid neighbor broke uniqueness: %+v", u.Uniqueness)
	}
}

func TestQueryErrors(t *testing.T) {
	c := openWith(t, makeBatch(0xA, "S", 2, 2, 3, 0))
	for name, req := range map[string]QueryRequest{
		"unknown op":        {Op: "teleport"},
		"negative k":        {Op: "nearest", K: -1, Vector: []float64{1, 2, 3}},
		"huge k":            {Op: "nearest", K: maxK + 1, Vector: []float64{1, 2, 3}},
		"negative radius":   {Op: "uniqueness", Bench: "S/b0", Radius: -1},
		"NaN radius":        {Op: "uniqueness", Bench: "S/b0", Radius: math.NaN()},
		"infinite radius":   {Op: "novelty", Suite: "S", Radius: math.Inf(1)},
		"negative probe":    {Op: "nearest", Probe: -2, Vector: []float64{1, 2, 3}},
		"ref and vector":    {Op: "nearest", Ref: "S/b0#0", Vector: []float64{1, 2, 3}},
		"neither ref nor v": {Op: "nearest"},
		"malformed ref":     {Op: "nearest", Ref: "S/b0"},
		"unknown ref":       {Op: "nearest", Ref: "S/b0#999"},
		"wrong dim":         {Op: "nearest", Vector: []float64{1}},
		"non-finite vector": {Op: "nearest", Vector: []float64{1, math.NaN(), 3}},
		"uniqueness no arg": {Op: "uniqueness"},
		"novelty no arg":    {Op: "novelty"},
		"unknown bench":     {Op: "uniqueness", Bench: "S/ghost"},
		"unknown suite":     {Op: "novelty", Suite: "Ghost"},
	} {
		if _, err := c.Query(req); !errors.Is(err, ErrBadQuery) {
			t.Fatalf("%s: err = %v, want a bad-query error", name, err)
		}
	}

	empty, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Query(QueryRequest{Op: "stats"}); err != nil {
		t.Fatalf("stats on an empty corpus: %v", err)
	}
	if _, err := empty.Query(QueryRequest{Op: "nearest", Vector: []float64{1}}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("nearest on an empty corpus: err = %v, want a bad-query error", err)
	}

	// Finite values whose column mean overflows leave no distance to
	// compare: every query is refused instead of answered out of NaNs,
	// and the fault is the corpus's, not the request's.
	huge := makeBatch(0xB, "S", 2, 2, 3, 0)
	huge.Entries[0].Vector[1], huge.Entries[1].Vector[1] = math.MaxFloat64, math.MaxFloat64
	if _, err := openWith(t, huge).Query(QueryRequest{Op: "nearest", Ref: "S/b1#0"}); err == nil || errors.Is(err, ErrBadQuery) {
		t.Fatalf("nearest over an overflowing column: err = %v, want a corpus error", err)
	}
	narrow := Batch{Dataset: 0xC, Seed: 1, Entries: []Entry{
		{Bench: "T/a", Suite: "T", Kind: KindInterval, Vector: []float64{0, 0}},
		{Bench: "T/b", Suite: "T", Kind: KindInterval, Vector: []float64{1e-150, 1}},
	}}
	if _, err := openWith(t, narrow).Query(QueryRequest{Op: "nearest", Vector: []float64{1e160, 1}}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("a query vector overflowing a narrow column: err = %v, want a bad-query error", err)
	}
}

// TestNearestRefExcludesOwnBenchmark: a ref query never returns the
// query benchmark's own records.
func TestNearestRefExcludesOwnBenchmark(t *testing.T) {
	c := openWith(t, makeBatch(0xA, "S", 3, 4, 5, 0))
	resp, err := c.Query(QueryRequest{Op: "nearest", Ref: "S/b0#0", K: 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range resp.Neighbors {
		if n.Bench == "S/b0" {
			t.Fatalf("neighbor %+v is the query's own benchmark", n)
		}
	}
	if len(resp.Neighbors) == 0 {
		t.Fatal("no neighbors at all")
	}
}

// TestIVFProbeFullIsExact: probing every partition must reproduce the
// exact scan bit for bit — same rows, same distances, same JSON.
func TestIVFProbeFullIsExact(t *testing.T) {
	g := lcg(3)
	c := openWith(t, randomBatch(0xA, 700, 8, &g))
	ix := testIndex(t, c)
	ivf := ix.ivfLayer()
	if ivf == nil {
		t.Fatal("700-row corpus built no IVF layer")
	}
	for q := 0; q < 8; q++ {
		vec := make([]float64, 8)
		for j := range vec {
			vec[j] = g.next() * 10
		}
		probed, err := c.Query(QueryRequest{Op: "nearest", Vector: vec, K: 10, Probe: ivf.nlist})
		if err != nil {
			t.Fatal(err)
		}
		// The echoed probe and scanned-row figures legitimately differ;
		// the answer rows must not.
		exactResp, err := c.Query(QueryRequest{Op: "nearest", Vector: vec, K: 10})
		if err != nil {
			t.Fatal(err)
		}
		if len(probed.Neighbors) != len(exactResp.Neighbors) {
			t.Fatalf("query %d: %d probed vs %d exact neighbors", q, len(probed.Neighbors), len(exactResp.Neighbors))
		}
		for i := range probed.Neighbors {
			if probed.Neighbors[i] != exactResp.Neighbors[i] {
				t.Fatalf("query %d neighbor %d: probed %+v != exact %+v",
					q, i, probed.Neighbors[i], exactResp.Neighbors[i])
			}
		}
	}
}

// TestIVFPartialProbeScansLess: a small probe visits a strict subset of
// the rows and still finds its neighbors in the probed lists.
func TestIVFPartialProbeScansLess(t *testing.T) {
	g := lcg(11)
	c := openWith(t, randomBatch(0xA, 700, 8, &g))
	vec := make([]float64, 8)
	for j := range vec {
		vec[j] = g.next() * 10
	}
	probed, err := c.Query(QueryRequest{Op: "nearest", Vector: vec, K: 5, Probe: 2})
	if err != nil {
		t.Fatal(err)
	}
	if probed.Scanned >= 700 {
		t.Fatalf("probe=2 scanned %d of 700 rows", probed.Scanned)
	}
	if len(probed.Neighbors) != 5 {
		t.Fatalf("probe=2 returned %d neighbors, want 5", len(probed.Neighbors))
	}
	// Determinism: the same probed query answers byte-identically.
	a := queryBytes(t, c, QueryRequest{Op: "nearest", Vector: vec, K: 5, Probe: 2})
	b := queryBytes(t, c, QueryRequest{Op: "nearest", Vector: vec, K: 5, Probe: 2})
	if !bytes.Equal(a, b) {
		t.Fatal("probed query is not deterministic")
	}
}

// TestIVFSmallCorpusFallsBack: a corpus too small for partitioning
// answers probed queries through the exact scan.
func TestIVFSmallCorpusFallsBack(t *testing.T) {
	c := openWith(t, makeBatch(0xA, "S", 2, 3, 4, 0))
	resp, err := c.Query(QueryRequest{Op: "nearest", Vector: testVec(1, 4), K: 3, Probe: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Scanned != 7 {
		t.Fatalf("small-corpus probed query scanned %d, want the full 7", resp.Scanned)
	}
}
