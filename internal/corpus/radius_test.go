package corpus

// The radius path's pin: every interval row's hit/no-hit decision,
// under both the uniqueness and the novelty exclusion, equals the
// exact blocked scan's, on a corpus of real runs and on adversarial
// ones, at radii from zero to beyond any distance, after each of two
// ingests and again after compaction.

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/kernel"
)

// scanWithin is the exact blocked scan the radius path must agree
// with: every block in row order, the scan's own computed squared
// distance, true at the first non-skipped row within the radius.
func scanWithin(ix *index, r int, radius float64, skip func(int) bool) bool {
	qn := ix.norm.Row(r)
	qq := kernel.SquaredNorm(qn)
	r2 := radius * radius
	dots := make([]float64, scanBlockRows)
	for _, blk := range ix.blocks {
		kernel.DotCols(qn, blk.ct, dots, blk.n)
		for i := 0; i < blk.n; i++ {
			if row := blk.start + i; !skip(row) && qq+blk.norms[i]-2*dots[i] <= r2 {
				return true
			}
		}
	}
	return false
}

// radiusGroup is one uniqueness or novelty query: its rows and the
// rows it excludes as neighbors.
type radiusGroup struct {
	rows []int
	skip func(int) bool
}

// radiusGroups maps each uniqueness benchmark and novelty suite of ix
// to its query.
func radiusGroups(ix *index) map[string]radiusGroup {
	out := make(map[string]radiusGroup)
	for bench, rows := range ix.byBench {
		out["uniqueness "+bench] = radiusGroup{rows, func(i int) bool {
			return ix.entries[i].kind != KindInterval || ix.entries[i].bench == bench
		}}
	}
	for suite, rows := range ix.bySuite {
		out["novelty "+suite] = radiusGroup{rows, func(i int) bool {
			return ix.entries[i].kind != KindInterval || ix.entries[i].suite == suite
		}}
	}
	return out
}

// testRadii runs from an exact-duplicate test to one every row passes.
var testRadii = []float64{0, 1e-12, 0.5, 1, 2, 4, 1e300}

// checkRadiusDecisions fails unless withinRadius decides every query
// row of c as scanWithin does, at every test radius. It returns the
// rows the radius path visited and the rows the exact scan's full
// passes hold, summed over every query row.
func checkRadiusDecisions(t *testing.T, name string, c *Corpus) (visited, full int) {
	t.Helper()
	ix := testIndex(t, c)
	for _, radius := range testRadii {
		for q, g := range radiusGroups(ix) {
			within := ix.withinRadius(radius, g.skip)
			for _, r := range g.rows {
				hit, n := within(r)
				if want := scanWithin(ix, r, radius, g.skip); hit != want {
					t.Fatalf("%s: %s at radius %g: row %d hit = %v, the exact scan says %v",
						name, q, radius, r, hit, want)
				}
				visited += n
				full += len(ix.entries)
			}
		}
	}
	return visited, full
}

// quickBatches is the service-mix corpus's shape: a quick run of the
// standard roster, then one of the BigData suite of models/bigdata.json.
func quickBatches(t *testing.T) []Batch {
	t.Helper()
	std, err := bench.StandardRegistry()
	if err != nil {
		t.Fatal(err)
	}
	mf, err := bench.ReadModelFiles("../../models/bigdata.json")
	if err != nil {
		t.Fatal(err)
	}
	merged, err := std.WithModels(mf)
	if err != nil {
		t.Fatal(err)
	}
	big, err := merged.FilterSuites("BigData")
	if err != nil {
		t.Fatal(err)
	}
	// The -quick preset; BigData's six benchmarks sample too few
	// intervals for 150 clusters, so it clusters as verify.sh's run does.
	cfg := core.TestConfig()
	cfg.IntervalLength, cfg.SamplesPerBenchmark, cfg.MaxIntervalsPerBenchmark = 5000, 20, 40
	cfg.NumClusters, cfg.NumProminent = 150, 50
	bigCfg := cfg
	bigCfg.NumClusters, bigCfg.NumProminent = 40, 20
	var out []Batch
	for _, run := range []struct {
		reg *bench.Registry
		cfg core.Config
	}{{std, cfg}, {big, bigCfg}} {
		res, err := core.Run(run.reg, run.cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := FromResult(res)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// shapedBatch builds one ingest from vectors, spreading them over
// benchmarks and suites round-robin and adding a centroid on the first.
func shapedBatch(dataset uint64, vecs [][]float64) Batch {
	b := Batch{Dataset: dataset, Seed: 1}
	for i, v := range vecs {
		suite := fmt.Sprintf("S%d", i%3)
		b.Entries = append(b.Entries, Entry{
			Bench: fmt.Sprintf("%s/b%d", suite, i%7), Suite: suite,
			Kind: KindInterval, Index: i, Vector: v,
		})
	}
	b.Entries = append(b.Entries, Entry{Kind: KindCentroid, Vector: vecs[0]})
	return b
}

// blobs draws n points around a few well-separated centers, so the
// quantizer's lists are tight and the bound prunes.
func blobs(g *lcg, n, dim int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, dim)
		for j := range v {
			v[j] = float64((i%5)*(j+1)%7)*3 + g.next()*0.8
		}
		out[i] = v
	}
	return out
}

// radiusCorpora are the adversarial corpora, each as its two ingests.
func radiusCorpora() map[string][]Batch {
	g := lcg(5)
	corpora := make(map[string][]Batch)
	add := func(name string, halves [2][][]float64) {
		corpora[name] = []Batch{shapedBatch(0xA, halves[0]), shapedBatch(0xB, halves[1])}
	}

	// Duplicates: every point four times over, across benchmarks and
	// suites, so radius 0 hits on whatever bits the duplicates' computed
	// distances round to.
	var dup [2][][]float64
	for h := range dup {
		for _, v := range blobs(&g, 60, 5) {
			for range 4 {
				dup[h] = append(dup[h], v)
			}
		}
	}
	add("duplicates", dup)

	// The ±1 cube in 7 dimensions, even-parity corners first: every
	// column of each ingest balances, so the normalized rows are the
	// raw ones exactly and every squared distance is an exact 4·Hamming.
	// Rows sit exactly at the radius (Hamming 1 at radius 2, Hamming 4
	// at radius 4), and a list's members sit exactly at its radius.
	var cube [2][][]float64
	for m := 0; m < 1<<7; m++ {
		v := make([]float64, 7)
		parity := 0
		for j := range v {
			v[j] = -1
			if m>>j&1 == 1 {
				v[j], parity = 1, parity^1
			}
		}
		cube[parity] = append(cube[parity], v)
	}
	add("cube", cube)

	// A constant column, and columns scaled by 1e-9 and 1e9.
	var scaled [2][][]float64
	for h := range scaled {
		for _, v := range blobs(&g, 250, 6) {
			v[0] = 3.25
			v[1] *= 1e-9
			v[2] *= 1e9
			scaled[h] = append(scaled[h], v)
		}
	}
	add("scaled", scaled)

	// Too small for the quantizer: one row (a single list, centered at
	// the origin), then a second in another suite (one quantizer list).
	one := func(dataset uint64, suite string, v []float64) Batch {
		return Batch{Dataset: dataset, Seed: 1, Entries: []Entry{
			{Bench: suite + "/b", Suite: suite, Kind: KindInterval, Vector: v},
		}}
	}
	corpora["tiny"] = []Batch{one(0xA, "S0", []float64{1, 2, 3}), one(0xB, "S1", []float64{1, 2, 3.5})}
	return corpora
}

// TestRadiusMatchesScan: the pruned radius path decides every row as
// the exact scan does, and prunes on a corpus of real runs.
func TestRadiusMatchesScan(t *testing.T) {
	corpora := radiusCorpora()
	corpora["quick-runs"] = quickBatches(t)
	for name, batches := range corpora {
		c := openWith(t)
		for i, b := range batches {
			if _, err := c.IngestBatch(b); err != nil {
				t.Fatalf("%s: ingest %d: %v", name, i, err)
			}
			checkRadiusDecisions(t, fmt.Sprintf("%s after ingest %d", name, i+1), c)
		}
		if _, err := c.Compact(); err != nil {
			t.Fatal(err)
		}
		visited, full := checkRadiusDecisions(t, name+" after compaction", c)
		if ivf := testIndex(t, c).ivfLayer(); name != "tiny" && ivf.nlist < 2 {
			t.Fatalf("%s: the partition has %d list(s), want several", name, ivf.nlist)
		}
		t.Logf("%s: the radius path visited %d of the exact scan's %d rows (%.3f)",
			name, visited, full, float64(visited)/float64(full))
		if name == "quick-runs" && 2*visited > full {
			t.Fatalf("%s: the radius path visited %d of %d rows; the bound stopped pruning", name, visited, full)
		}
	}
}
