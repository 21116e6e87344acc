package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/ga"
	"repro/internal/kernel"
	"repro/internal/stats"
)

// PhaseKind classifies a cluster by the provenance of its member
// intervals, following section 4.2 of the paper.
type PhaseKind uint8

const (
	// BenchmarkSpecific clusters hold intervals of a single benchmark:
	// unique behaviour not observed elsewhere.
	BenchmarkSpecific PhaseKind = iota
	// SuiteSpecific clusters hold intervals of multiple benchmarks, all
	// from one suite.
	SuiteSpecific
	// Mixed clusters hold intervals from multiple suites.
	Mixed
)

// String names the kind as in the paper's figure groups.
func (k PhaseKind) String() string {
	switch k {
	case BenchmarkSpecific:
		return "benchmark-specific"
	case SuiteSpecific:
		return "suite-specific"
	default:
		return "mixed"
	}
}

// BenchShare is one benchmark's participation in a cluster.
type BenchShare struct {
	// BenchID is the "suite/name" benchmark identifier.
	BenchID string
	// Suite is the benchmark's suite.
	Suite bench.Suite
	// ClusterShare is the fraction of the cluster made of this
	// benchmark's intervals (the pie-chart slice).
	ClusterShare float64
	// BenchmarkFraction is the fraction of this benchmark's sampled
	// execution that the cluster represents (the percentage in the
	// paper's benchmark lists).
	BenchmarkFraction float64
}

// PhaseSummary describes one prominent phase (cluster).
type PhaseSummary struct {
	// Cluster is the cluster's index in Result.Clusters.
	Cluster int
	// Weight is the cluster's fraction of the entire sampled workload.
	Weight float64
	// Kind classifies the cluster's provenance.
	Kind PhaseKind
	// Representative is the interval closest to the cluster center.
	Representative IntervalRef
	// RepVector is the representative's raw 69-characteristic vector.
	RepVector []float64
	// Composition lists the represented benchmarks, largest share first.
	Composition []BenchShare
}

// Result is a completed pipeline run.
type Result struct {
	Config   Config
	Registry *bench.Registry
	Dataset  *Dataset

	// PCA holds the principal components analysis of the raw data.
	PCA *stats.PCA
	// NumPCs is how many components were retained (std > MinPCStd).
	NumPCs int
	// Scores is the dataset in rescaled-PCA space (rows parallel to
	// Dataset.Refs).
	Scores *stats.Matrix

	// Clusters is the k-means clustering of Scores.
	Clusters *cluster.Result
	// Prominent are the top-weight clusters, heaviest first.
	Prominent []PhaseSummary

	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// Run executes the full methodology over the registry's benchmarks as a
// sequence of engine stages (sample → characterize → pca → scores →
// kmeans → prominent; see engine.go). logf, if non-nil, receives
// progress lines. With a cache, every stage whose artifact is present
// and valid is loaded instead of recomputed; a characterization that
// misses extends the latest cached roster it is a superset of, and
// otherwise reads every interval vector already cached, whoever
// computed it. Every path produces results byte-identical to the plain
// in-process run.
func Run(reg *bench.Registry, cfg Config, logf func(format string, args ...any)) (*Result, error) {
	start := time.Now()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if reg == nil {
		reg = cfg.Registry
	}
	if reg == nil {
		return nil, fmt.Errorf("core: no benchmark registry (nil argument and nil Config.Registry)")
	}
	if reg.Len() == 0 {
		return nil, fmt.Errorf("core: empty benchmark registry")
	}

	span := cfg.Metrics.StartSpan("sample")
	refs := SampleRefs(reg, cfg)
	span.SetRows(len(refs)).End()
	if cfg.NumClusters >= len(refs) {
		return nil, fmt.Errorf("core: %d clusters need more than %d intervals", cfg.NumClusters, len(refs))
	}
	eng, err := newEngine(reg, cfg, refs, logf)
	if err != nil {
		return nil, err
	}

	logf("characterizing %d sampled intervals (%d benchmarks, %d instructions each)...",
		len(refs), reg.Len(), cfg.IntervalLength)
	ds, err := eng.characterize(refs)
	if err != nil {
		return nil, err
	}
	logf("characterized %d unique intervals (%d instructions total)", ds.UniqueIntervals, ds.Instructions)

	var pca stats.PCA
	if err := eng.stage("pca", eng.pcaKey(), &pca, ds.Raw.Rows, func() error {
		span := cfg.Metrics.StartSpan("pca").SetRows(ds.Raw.Rows)
		defer span.End()
		p, err := stats.ComputePCA(ds.Raw, true)
		if err != nil {
			return fmt.Errorf("core: PCA: %w", err)
		}
		pca = *p
		return nil
	}); err != nil {
		return nil, err
	}

	var scores stats.Matrix
	if err := eng.stage("scores", eng.scoresKey(), &scores, ds.Raw.Rows, func() error {
		span := cfg.Metrics.StartSpan("scores").SetRows(ds.Raw.Rows)
		defer span.End()
		s, err := pca.RescaledScores(ds.Raw, pca.NumRetained(cfg.MinPCStd))
		if err != nil {
			return fmt.Errorf("core: rescaled scores: %w", err)
		}
		scores = *s
		return nil
	}); err != nil {
		return nil, err
	}
	numPCs := scores.Cols
	logf("PCA: retaining %d components (%.1f%% of variance)", numPCs, 100*pca.ExplainedVariance(numPCs))

	// cfg.KMeans already carries the inherited pipeline seed and worker
	// count (Validate resolved them above).
	k := cfg.NumClusters
	var cl cluster.Result
	if err := eng.stage("kmeans", eng.clusterKey(), &cl, scores.Rows, func() error {
		logf("k-means: k=%d over %d intervals in %d dimensions (%d restarts, %d workers)...",
			k, scores.Rows, scores.Cols, max(1, cfg.KMeans.Restarts), cfg.Workers)
		span := cfg.Metrics.StartSpan("kmeans").SetRows(scores.Rows).SetWorkers(cfg.Workers)
		defer span.End()
		c, err := cluster.KMeans(&scores, k, cfg.KMeans)
		if err != nil {
			return fmt.Errorf("core: clustering: %w", err)
		}
		cl = *c
		return nil
	}); err != nil {
		return nil, err
	}
	logf("clustering BIC %.1f, avg within-cluster distance %.3f", cl.BIC, cl.AvgWithinClusterDistance(&scores))

	res := &Result{
		Config:   cfg,
		Registry: reg,
		Dataset:  ds,
		PCA:      &pca,
		NumPCs:   numPCs,
		Scores:   &scores,
		Clusters: &cl,
	}
	sum := &summaryArtifact{reg: reg}
	if err := eng.stage("prominent", eng.summaryKey(), sum, len(cl.Assignments), func() error {
		span := cfg.Metrics.StartSpan("prominent").SetRows(len(cl.Assignments))
		defer span.End()
		sum.phases = res.summarizeProminent(cfg.NumProminent)
		return nil
	}); err != nil {
		return nil, err
	}
	res.Prominent = sum.phases
	res.Elapsed = time.Since(start)
	logf("top-%d prominent phases cover %.1f%% of the workload (%.1fs)",
		len(res.Prominent), 100*res.ProminentCoverage(), res.Elapsed.Seconds())
	return res, nil
}

// summarizeProminent builds PhaseSummary values for the n heaviest
// clusters. All per-cluster compositions come from a single pass over
// the assignments (one K x B count table), instead of rescanning every
// dataset row once per prominent cluster.
func (r *Result) summarizeProminent(n int) []PhaseSummary {
	order := r.Clusters.ByWeight()
	if n > len(order) {
		n = len(order)
	}
	reps := r.Clusters.Representatives(r.Scores)
	weights := r.Clusters.Weights()

	// Dense benchmark indices in first-appearance order over Refs.
	benchIdx := make(map[string]int)
	var benchIDs []string
	var benchSuites []bench.Suite
	rowBench := make([]int, len(r.Dataset.Refs))
	for i, ref := range r.Dataset.Refs {
		id := ref.Bench.ID()
		bi, ok := benchIdx[id]
		if !ok {
			bi = len(benchIDs)
			benchIdx[id] = bi
			benchIDs = append(benchIDs, id)
			benchSuites = append(benchSuites, ref.Bench.Suite)
		}
		rowBench[i] = bi
	}
	// cells[c*B+b] counts cluster c's rows from benchmark b; benchRows[b]
	// is benchmark b's sampled row total (for BenchmarkFraction).
	nb := len(benchIDs)
	cells := make([]int, r.Clusters.K*nb)
	benchRows := make([]int, nb)
	for i, c := range r.Clusters.Assignments {
		cells[c*nb+rowBench[i]]++
		benchRows[rowBench[i]]++
	}

	out := make([]PhaseSummary, 0, n)
	for _, c := range order[:n] {
		out = append(out, r.summarizeCluster(c, weights[c], reps[c],
			cells[c*nb:(c+1)*nb], benchIDs, benchSuites, benchRows))
	}
	return out
}

// summarizeCluster renders one cluster's summary from its row of the
// precomputed composition table (counts[b] = rows from benchmark b).
func (r *Result) summarizeCluster(c int, weight float64, rep int, counts []int,
	benchIDs []string, benchSuites []bench.Suite, benchRows []int) PhaseSummary {
	total := 0
	members := 0
	suites := map[bench.Suite]bool{}
	for bi, cnt := range counts {
		if cnt == 0 {
			continue
		}
		total += cnt
		members++
		suites[benchSuites[bi]] = true
	}
	kind := Mixed
	switch {
	case members == 1:
		kind = BenchmarkSpecific
	case len(suites) == 1:
		kind = SuiteSpecific
	}
	comp := make([]BenchShare, 0, members)
	for bi, cnt := range counts {
		if cnt == 0 {
			continue
		}
		comp = append(comp, BenchShare{
			BenchID:           benchIDs[bi],
			Suite:             benchSuites[bi],
			ClusterShare:      float64(cnt) / float64(max(total, 1)),
			BenchmarkFraction: float64(cnt) / float64(max(benchRows[bi], 1)),
		})
	}
	sort.Slice(comp, func(a, b int) bool {
		if comp[a].ClusterShare != comp[b].ClusterShare {
			return comp[a].ClusterShare > comp[b].ClusterShare
		}
		return comp[a].BenchID < comp[b].BenchID
	})
	ps := PhaseSummary{
		Cluster:     c,
		Weight:      weight,
		Kind:        kind,
		Composition: comp,
	}
	if rep >= 0 {
		ps.Representative = r.Dataset.Refs[rep]
		ps.RepVector = append([]float64(nil), r.Dataset.Raw.Row(rep)...)
	}
	return ps
}

// ProminentCoverage returns the summed weight of the prominent phases (the
// paper reports 87.8% for its top 100 of 300).
func (r *Result) ProminentCoverage() float64 {
	var s float64
	for _, p := range r.Prominent {
		s += p.Weight
	}
	return s
}

// ProminentRawMatrix returns the prominent phases' representative raw
// characteristic vectors as a matrix (one row per prominent phase), the
// input to the genetic algorithm and the kiviat plots.
func (r *Result) ProminentRawMatrix() *stats.Matrix {
	m := stats.NewMatrix(len(r.Prominent), r.Dataset.Raw.Cols)
	for i, p := range r.Prominent {
		copy(m.Row(i), p.RepVector)
	}
	return m
}

// RawCentroids maps the clustering back into the raw characteristic
// space: row c is the mean of the raw vectors assigned to cluster c
// (zero for an empty cluster), counts[c] its member count. The k-means
// itself runs in rescaled-PCA space, so these are the centroids a
// cross-run phase database can compare against — same 69 columns as
// every interval vector. Accumulation is serial in row order, so the
// result is bit-identical at any worker count.
func (r *Result) RawCentroids() (centroids *stats.Matrix, counts []int) {
	k := r.Clusters.Centers.Rows
	centroids = stats.NewMatrix(k, r.Dataset.Raw.Cols)
	counts = make([]int, k)
	for i, a := range r.Clusters.Assignments {
		kernel.Add(centroids.Row(a), r.Dataset.Raw.Row(i))
		counts[a]++
	}
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			continue
		}
		inv := 1 / float64(counts[c])
		row := centroids.Row(c)
		for j := range row {
			row[j] *= inv
		}
	}
	return centroids, counts
}

// SelectKeyCharacteristics runs the genetic algorithm over the prominent
// phases to select `count` key characteristics (section 2.7, Table 2).
func (r *Result) SelectKeyCharacteristics(count int) (ga.Selection, error) {
	fitness, err := ga.DistanceFitness(r.ProminentRawMatrix(), r.Config.MinPCStd)
	if err != nil {
		return ga.Selection{}, err
	}
	// r.Config was validated by Run, so cfg already carries the
	// inherited pipeline seed, worker count and metrics collector.
	cfg := r.Config.GA
	cfg.TargetCount = count
	span := r.Config.Metrics.StartSpan("ga.select").SetRows(len(r.Prominent)).SetWorkers(cfg.Workers)
	sel, err := ga.Run(r.Dataset.Raw.Cols, fitness, cfg)
	span.End()
	return sel, err
}

// SweepKeyCharacteristics reproduces Figure 1: the best distance
// correlation at each retained-characteristic count.
func (r *Result) SweepKeyCharacteristics(counts []int) ([]ga.SweepResult, error) {
	fitness, err := ga.DistanceFitness(r.ProminentRawMatrix(), r.Config.MinPCStd)
	if err != nil {
		return nil, err
	}
	span := r.Config.Metrics.StartSpan("ga.sweep").SetRows(len(counts)).SetWorkers(r.Config.GA.Workers)
	out, err := ga.Sweep(r.Dataset.Raw.Cols, fitness, counts, r.Config.GA)
	span.End()
	return out, err
}
