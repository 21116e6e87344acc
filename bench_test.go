package repro

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper (regenerating the same rows/series the paper reports, at a
// reduced scale chosen to finish in seconds), plus micro-benchmarks for the
// expensive substrates. Run everything with:
//
//	go test -bench=. -benchmem
//
// Figure/table benchmarks report domain numbers via b.ReportMetric (e.g.
// coverage per suite) in addition to timing.

import (
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/ga"
	"repro/internal/isa"
	"repro/internal/mica"
	"repro/internal/mica/ilp"
	"repro/internal/mica/ppm"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// benchConfig is the scale used by the table/figure benchmarks.
func benchConfig() core.Config {
	cfg := core.TestConfig()
	cfg.IntervalLength = 2500
	cfg.SamplesPerBenchmark = 10
	cfg.MaxIntervalsPerBenchmark = 16
	cfg.NumClusters = 80
	cfg.NumProminent = 40
	cfg.KeyCharacteristics = 8
	return cfg
}

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	reg, err := bench.StandardRegistry()
	if err != nil {
		b.Fatal(err)
	}
	return experiments.NewEnv(reg, benchConfig(), "", nil)
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	x, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		if _, err := x.Run(env); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper table/figure --------------------------------

func BenchmarkTable1Inventory(b *testing.B)   { runExperiment(b, "table1") }
func BenchmarkTable2GASelection(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkTable3IntervalCounts(b *testing.B) {
	runExperiment(b, "table3")
}
func BenchmarkFig1GASweep(b *testing.B)      { runExperiment(b, "fig1") }
func BenchmarkFig23KiviatPlots(b *testing.B) { runExperiment(b, "fig23") }

func BenchmarkFig4Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		if _, err := experiments.Fig4(env); err != nil {
			b.Fatal(err)
		}
		res, err := env.Result()
		if err != nil {
			b.Fatal(err)
		}
		cov := res.SuiteCoverage()
		for _, s := range []bench.Suite{bench.SuiteBioPerf, bench.SuiteSPECfp2006, bench.SuiteMediaBench} {
			b.ReportMetric(float64(cov[s]), "clusters/"+string(s))
		}
	}
}

func BenchmarkFig5Diversity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		if _, err := experiments.Fig5(env); err != nil {
			b.Fatal(err)
		}
		res, err := env.Result()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.ClustersFor(bench.SuiteSPECfp2006, 0.8)), "c80/SPECfp2006")
		b.ReportMetric(float64(res.ClustersFor(bench.SuiteMediaBench, 0.8)), "c80/MediaBenchII")
	}
}

func BenchmarkFig6Uniqueness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		if _, err := experiments.Fig6(env); err != nil {
			b.Fatal(err)
		}
		res, err := env.Result()
		if err != nil {
			b.Fatal(err)
		}
		uf := res.UniqueFraction()
		b.ReportMetric(100*uf[bench.SuiteBioPerf], "%unique/BioPerf")
		b.ReportMetric(100*uf[bench.SuiteMediaBench], "%unique/MediaBenchII")
	}
}

func BenchmarkAblationAggregate(b *testing.B) { runExperiment(b, "ablation-aggregate") }
func BenchmarkAblationK(b *testing.B)         { runExperiment(b, "ablation-k") }
func BenchmarkAblationSampling(b *testing.B)  { runExperiment(b, "ablation-sampling") }

// --- Substrate micro-benchmarks ------------------------------------------

// BenchmarkTraceGeneration measures raw synthetic-instruction throughput.
func BenchmarkTraceGeneration(b *testing.B) {
	reg, err := bench.StandardRegistry()
	if err != nil {
		b.Fatal(err)
	}
	bm, err := reg.Lookup("SPECfp2006/lbm")
	if err != nil {
		b.Fatal(err)
	}
	beh := bm.BehaviorAt(0, 10)
	g, err := trace.NewGenerator(beh, 1)
	if err != nil {
		b.Fatal(err)
	}
	var ins isa.Instruction
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next(&ins)
	}
}

// BenchmarkMICACharacterization measures generation + full 69-metric
// analysis, the pipeline's hot loop.
func BenchmarkMICACharacterization(b *testing.B) {
	reg, err := bench.StandardRegistry()
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"SPECfp2006/lbm", "BioPerf/grappa", "SPECint2006/astar"} {
		bm, err := reg.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		beh := bm.BehaviorAt(0, 10)
		b.Run(name, func(b *testing.B) {
			a := mica.NewAnalyzer()
			g, err := trace.NewGenerator(beh, 1)
			if err != nil {
				b.Fatal(err)
			}
			var ins isa.Instruction
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Next(&ins)
				a.Record(&ins)
			}
		})
	}
}

func BenchmarkPPMGroup(b *testing.B) {
	g, err := ppm.NewGroup(ppm.Global, ppm.PerAddress, []int{4, 8, 12}, 0)
	if err != nil {
		b.Fatal(err)
	}
	x := uint64(99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = x*6364136223846793005 + 1
		g.Record(0x400000+uint64(i%32)*4, x>>63 == 1)
	}
}

func BenchmarkILPAnalyzer(b *testing.B) {
	a, err := ilp.NewAnalyzer(ilp.StandardWindows)
	if err != nil {
		b.Fatal(err)
	}
	ins := isa.Instruction{Op: isa.OpIntAdd, Dst: 5, Src: [isa.MaxSrcRegs]uint8{3, 7}, NSrc: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ins.Dst = uint8(1 + i%60)
		a.Record(&ins)
	}
}

func BenchmarkPCA69Columns(b *testing.B) {
	rng := trace.NewRNG(1)
	data := stats.NewMatrix(500, mica.NumMetrics)
	for i := range data.Data {
		data.Data[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.ComputePCA(data, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKMeansK300(b *testing.B) {
	rng := trace.NewRNG(2)
	data := stats.NewMatrix(3000, 15)
	for i := range data.Data {
		data.Data[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.KMeans(data, 300, cluster.Options{Seed: 1, Restarts: 1, MaxIters: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGASelection(b *testing.B) {
	rng := trace.NewRNG(3)
	data := stats.NewMatrix(100, mica.NumMetrics)
	for i := 0; i < data.Rows; i++ {
		base := rng.Float64() * 10
		row := data.Row(i)
		for j := range row {
			row[j] = base*float64(j%5) + rng.Float64()
		}
	}
	fitness, err := ga.DistanceFitness(data, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := ga.Run(mica.NumMetrics, fitness, ga.Config{
			TargetCount: 12, Seed: int64(i + 1),
			Populations: 2, PopulationSize: 12, MaxGenerations: 10, Patience: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// workerCounts returns the worker counts the parallel benchmarks compare:
// serial, and the machine's GOMAXPROCS when that differs.
func workerCounts() []int {
	if p := runtime.GOMAXPROCS(0); p > 1 {
		return []int{1, p}
	}
	return []int{1}
}

// BenchmarkKMeansParallel measures the parallel k-means restarts and
// assignment kernel across worker counts; results are identical for all
// of them, so the comparison is pure speedup. The workers=N rows cluster
// uniform noise, which has no structure for the pruned Lloyd passes to
// exploit. The clustered/workers=N rows run the shape the pipeline
// clusters: warm-reanalyze's 11,550 rescaled 9-PC scores at k = 300, 3
// restarts and 60 iterations, stood in for by Gaussian blobs of uneven
// spread; center-evals/op counts the row×center distance evaluations
// the pruning left (a full scan on every pass would do
// (iterations + restarts) x rows x k).
func BenchmarkKMeansParallel(b *testing.B) {
	rng := trace.NewRNG(2)
	data := stats.NewMatrix(3000, 15)
	for i := range data.Data {
		data.Data[i] = rng.Float64()
	}
	for _, workers := range workerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cluster.KMeans(data, 300, cluster.Options{
					Seed: 1, Restarts: 4, MaxIters: 20, Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Inertia, "inertia")
			}
			rowsPerOp := float64(4 * data.Rows)
			b.ReportMetric(rowsPerOp*float64(b.N)/b.Elapsed().Seconds(), "restart-rows/s")
		})
	}
	scores := clusteredScores(11550, 9, 231, 7)
	for _, workers := range workerCounts() {
		b.Run(fmt.Sprintf("clustered/workers=%d", workers), func(b *testing.B) {
			m := obs.New()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cluster.KMeans(scores, 300, cluster.Options{
					Seed: 1, Restarts: 3, MaxIters: 60, Workers: workers, Metrics: m,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Inertia, "inertia")
			}
			b.ReportMetric(float64(m.Counter("kmeans.center_evals").Value())/float64(b.N), "center-evals/op")
		})
	}
}

// clusteredScores draws rows points around blobs Gaussian centers in dims
// dimensions, each blob with its own spread, rows dealt round-robin — a
// stand-in for rescaled PCA scores, which cluster into phases of uneven
// tightness.
func clusteredScores(rows, dims, blobs int, seed int64) *stats.Matrix {
	rng := rand.New(rand.NewSource(seed))
	centers := stats.NewMatrix(blobs, dims)
	spread := make([]float64, blobs)
	for c := 0; c < blobs; c++ {
		for j := range centers.Row(c) {
			centers.Row(c)[j] = 2 * rng.NormFloat64()
		}
		spread[c] = 0.1 + 0.5*rng.Float64()
	}
	data := stats.NewMatrix(rows, dims)
	for i := 0; i < rows; i++ {
		c := i % blobs
		for j, v := range centers.Row(c) {
			data.Row(i)[j] = v + spread[c]*rng.NormFloat64()
		}
	}
	return data
}

// BenchmarkGAFitnessParallel measures concurrent genome evaluation with
// the paper's distance objective. The workers=N rows search a synthetic
// 100 x 69 matrix built from five column patterns with a small GA. The
// prominent/workers=N rows run the search the pipeline runs: 12 genes
// at the default GA configuration over the 100 x 69 prominent-phase
// matrix of a small pipeline run. Every row reports evals/s, distinct
// genome evaluations per second.
func BenchmarkGAFitnessParallel(b *testing.B) {
	rng := trace.NewRNG(3)
	data := stats.NewMatrix(100, mica.NumMetrics)
	for i := 0; i < data.Rows; i++ {
		base := rng.Float64() * 10
		row := data.Row(i)
		for j := range row {
			row[j] = base*float64(j%5) + rng.Float64()
		}
	}
	prominent := prominentPhases(b)
	for _, c := range []struct {
		name string
		data *stats.Matrix
		cfg  ga.Config
	}{
		{"", data, ga.Config{TargetCount: 12, Seed: 7, Populations: 2, PopulationSize: 16, MaxGenerations: 12, Patience: 6}},
		{"prominent/", prominent, ga.Config{TargetCount: 12, Seed: 7}},
	} {
		fitness, err := ga.DistanceFitness(c.data, 1.0)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range workerCounts() {
			b.Run(fmt.Sprintf("%sworkers=%d", c.name, workers), func(b *testing.B) {
				cfg := c.cfg
				cfg.Workers = workers
				evals := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sel, err := ga.Run(c.data.Cols, fitness, cfg)
					if err != nil {
						b.Fatal(err)
					}
					evals += sel.Evaluations
				}
				b.ReportMetric(float64(evals)/b.Elapsed().Seconds(), "evals/s")
			})
		}
	}
}

// prominentPhases returns the 100 x 69 prominent-phase matrix of a
// small pipeline run (the test configuration with 120 clusters).
func prominentPhases(b *testing.B) *stats.Matrix {
	b.Helper()
	reg, err := bench.StandardRegistry()
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.TestConfig()
	cfg.NumClusters = 120
	cfg.NumProminent = 100
	res, err := core.Run(reg, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	return res.ProminentRawMatrix()
}

// BenchmarkSelectKSweep measures the concurrent k-range evaluation used by
// timeline phase detection.
func BenchmarkSelectKSweep(b *testing.B) {
	rng := trace.NewRNG(5)
	data := stats.NewMatrix(400, 8)
	for i := range data.Data {
		data.Data[i] = rng.Float64()
	}
	for _, workers := range workerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cluster.SelectK(data, 1, 12, 0.9, cluster.Options{
					Seed: 1, Restarts: 2, MaxIters: 30, Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.K), "chosen-k")
			}
			b.ReportMetric(12*float64(b.N)/b.Elapsed().Seconds(), "kmeans-fits/s")
		})
	}
}

// BenchmarkCharacterize measures the measurement substrate end to end —
// core.Characterize over the benchConfig sample, cache disabled — and
// reports ns/instruction and instructions/s, the numbers the paper's scale
// (77 benchmarks x 1,000 intervals x 100M instructions) multiplies.
func BenchmarkCharacterize(b *testing.B) {
	reg, err := bench.StandardRegistry()
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig()
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	refs := core.SampleRefs(reg, cfg)
	var instructions uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := core.Characterize(refs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		instructions += ds.Instructions
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instructions), "ns/instr")
	b.ReportMetric(float64(instructions)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkCharacterizeCached measures the cache-warm characterization
// path: one untimed cold run populates the cache, then every timed
// iteration is served entirely from its dataset artifact (verified via
// CacheHits) — no interval is generated at all.
func BenchmarkCharacterizeCached(b *testing.B) {
	reg, err := bench.StandardRegistry()
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig()
	cfg.CacheDir = b.TempDir()
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	refs := core.SampleRefs(reg, cfg)
	if _, err := core.Characterize(refs, cfg); err != nil { // warm the cache
		b.Fatal(err)
	}
	var instructions uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := core.Characterize(refs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if ds.CacheHits != ds.UniqueIntervals {
			b.Fatalf("warm run generated %d intervals", ds.UniqueIntervals-ds.CacheHits)
		}
		instructions += ds.Instructions
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instructions), "ns/instr")
	b.ReportMetric(float64(instructions)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkCharacterizeAppend prices the extend-dataset path against its
// cold control, as an interleaved pair: "cold" runs the full-roster
// pipeline from nothing, "incremental" appends SPECint2006/mcf to a
// cached baseline over every other benchmark — delta characterize over
// the baseline's shard, then the exact PCA and k-means refit. The
// baseline cache is filled once, off the clock, and copied into a fresh
// directory with the timer stopped before every iteration, so each one
// measures a true N-1 -> N append: its vector-cache misses are exactly
// mcf's unique sampled intervals (a reused directory would serve them
// from the previous iteration's vectors), and the delta counters are
// asserted so a silent fallback to the cold path cannot masquerade as a
// speedup.
func BenchmarkCharacterizeAppend(b *testing.B) {
	reg, err := bench.StandardRegistry()
	if err != nil {
		b.Fatal(err)
	}
	var keep []*bench.Benchmark
	for _, bm := range reg.All() {
		if bm.ID() != "SPECint2006/mcf" {
			keep = append(keep, bm)
		}
	}
	sub, err := bench.NewRegistry(keep)
	if err != nil {
		b.Fatal(err)
	}
	base := benchConfig()

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(reg, base, nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("incremental", func(b *testing.B) {
		baseline := base
		baseline.CacheDir = b.TempDir()
		if _, err := core.Run(sub, baseline, nil); err != nil {
			b.Fatal(err)
		}
		mcf := map[int]bool{}
		for _, r := range core.SampleRefs(reg, base) {
			if r.Bench.ID() == "SPECint2006/mcf" {
				mcf[r.Index] = true
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cfg := base
			cfg.CacheDir = b.TempDir()
			if err := copyTree(cfg.CacheDir, baseline.CacheDir); err != nil {
				b.Fatal(err)
			}
			m := obs.New()
			cfg.Metrics = m
			b.StartTimer()
			if _, err := core.Run(reg, cfg, nil); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			for name, want := range map[string]int64{
				"fcache.misses.vector":      int64(len(mcf)),
				"engine.delta.characterize": 1,
				"engine.stages_delta":       1,
				"engine.computed.pca":       1,
				"engine.computed.kmeans":    1,
			} {
				if got := m.Counter(name).Value(); got != want {
					b.Fatalf("%s = %d, want %d", name, got, want)
				}
			}
			b.ReportMetric(float64(m.Counter("engine.delta_reused_rows").Value()), "reused-rows")
			b.ReportMetric(float64(m.Counter("fcache.misses.vector").Value()), "vector-misses")
			b.StartTimer()
		}
	})
}

// copyTree copies the regular files under src into dst, keeping their
// relative paths.
func copyTree(dst, src string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}

// BenchmarkFullPipeline measures an end-to-end run at the benchmark scale.
func BenchmarkFullPipeline(b *testing.B) {
	reg, err := bench.StandardRegistry()
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(reg, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Dataset.Instructions), "instructions")
	}
}

var sinkString string

// BenchmarkKiviatRender measures SVG figure generation.
func BenchmarkKiviatRender(b *testing.B) {
	env := benchEnv(b)
	if _, err := env.Result(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := experiments.Fig23(env)
		if err != nil {
			b.Fatal(err)
		}
		sinkString = out
	}
}

func BenchmarkUarchCPU(b *testing.B) {
	cpu, err := uarch.NewCPU(uarch.BigCore())
	if err != nil {
		b.Fatal(err)
	}
	reg, err := bench.StandardRegistry()
	if err != nil {
		b.Fatal(err)
	}
	bm, err := reg.Lookup("SPECint2006/astar")
	if err != nil {
		b.Fatal(err)
	}
	g, err := trace.NewGenerator(bm.BehaviorAt(0, 10), 1)
	if err != nil {
		b.Fatal(err)
	}
	var ins isa.Instruction
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next(&ins)
		cpu.Record(&ins)
	}
}

func BenchmarkTraceEncode(b *testing.B) {
	reg, err := bench.StandardRegistry()
	if err != nil {
		b.Fatal(err)
	}
	bm, err := reg.Lookup("SPECfp2006/lbm")
	if err != nil {
		b.Fatal(err)
	}
	g, err := trace.NewGenerator(bm.BehaviorAt(0, 10), 1)
	if err != nil {
		b.Fatal(err)
	}
	w := trace.NewWriter(io.Discard)
	var ins isa.Instruction
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next(&ins)
		if err := w.Write(&ins); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorpusQuery prices the phase corpus's online queries on a
// paper-scale database: 77 benchmarks x 150 interval vectors = 11,550
// rows of 69 characteristics — the corpus a full-roster campaign at 150
// samples per benchmark would accumulate. nearest-exact is the blocked
// full scan; nearest-probed visits 8 of the IVF partition's lists;
// uniqueness (one benchmark's 150 rows) and novelty (one suite's 1,650
// rows) visit, per row, the lists the partition's bound cannot rule
// out. The rows are uniform noise, the hard case for that bound: no
// list is tight. rows/s counts the rows each query visited (its
// Scanned), not the rows of the corpus. parallel-uniqueness and
// parallel-novelty issue the same queries from GOMAXPROCS goroutines at
// once (b.RunParallel; set -cpu), so they show whether queries overlap
// or wait for one another.
func BenchmarkCorpusQuery(b *testing.B) {
	const (
		nBenches = 77
		perBench = 150
	)
	dir := b.TempDir()
	c, err := corpus.Open(dir, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := trace.NewRNG(11)
	batch := corpus.Batch{Dataset: 0xC0FFEE, Params: 1, Seed: 1}
	for bi := 0; bi < nBenches; bi++ {
		suite := fmt.Sprintf("Suite%d", bi%7)
		name := fmt.Sprintf("%s/bench%02d", suite, bi)
		for s := 0; s < perBench; s++ {
			vec := make([]float64, mica.NumMetrics)
			for j := range vec {
				vec[j] = rng.Float64() + float64(bi%11)*0.1
			}
			batch.Entries = append(batch.Entries, corpus.Entry{
				Bench: name, Suite: suite, Kind: corpus.KindInterval,
				Index: s, Vector: vec,
			})
		}
	}
	if _, err := c.IngestBatch(batch); err != nil {
		b.Fatal(err)
	}
	probe := make([]float64, mica.NumMetrics)
	for j := range probe {
		probe[j] = rng.Float64()
	}
	query := func(b *testing.B, req corpus.QueryRequest) {
		b.Helper()
		var rows int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := c.Query(req)
			if err != nil {
				b.Fatal(err)
			}
			rows += int64(resp.Scanned)
		}
		b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
	}
	b.Run("nearest-exact", func(b *testing.B) {
		query(b, corpus.QueryRequest{Op: "nearest", Vector: probe, K: 10})
	})
	b.Run("nearest-probed", func(b *testing.B) {
		query(b, corpus.QueryRequest{Op: "nearest", Vector: probe, K: 10, Probe: 8})
	})
	b.Run("uniqueness", func(b *testing.B) {
		query(b, corpus.QueryRequest{Op: "uniqueness", Bench: "Suite0/bench00"})
	})
	b.Run("novelty", func(b *testing.B) {
		query(b, corpus.QueryRequest{Op: "novelty", Suite: "Suite0"})
	})
	parallel := func(b *testing.B, req corpus.QueryRequest) {
		b.Helper()
		if _, err := c.Query(req); err != nil { // the partition, built once
			b.Fatal(err)
		}
		var rows atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				resp, err := c.Query(req)
				if err != nil {
					b.Error(err)
					return
				}
				rows.Add(int64(resp.Scanned))
			}
		})
		b.ReportMetric(float64(rows.Load())/b.Elapsed().Seconds(), "rows/s")
	}
	b.Run("parallel-uniqueness", func(b *testing.B) {
		parallel(b, corpus.QueryRequest{Op: "uniqueness", Bench: "Suite0/bench00"})
	})
	b.Run("parallel-novelty", func(b *testing.B) {
		parallel(b, corpus.QueryRequest{Op: "novelty", Suite: "Suite0"})
	})
}

func BenchmarkHierarchicalClustering(b *testing.B) {
	rng := trace.NewRNG(9)
	data := stats.NewMatrix(77, 12)
	for i := range data.Data {
		data.Data[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Hierarchical(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCaseStudies(b *testing.B) { runExperiment(b, "casestudies") }
