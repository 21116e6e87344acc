package ga

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/par"
	"repro/internal/stats"
)

// DistanceFitness builds the paper's fitness function: for a candidate
// subset of characteristics, it computes the pairwise Euclidean distances
// between the rows of data (the prominent phases) in the rescaled-PCA
// space of the reduced data set, and scores the subset by the Pearson
// correlation of those distances against the distances in the
// rescaled-PCA space of the full data set. The extra PCA step inside the
// fitness discounts correlation among the raw characteristics, exactly as
// section 2.7 describes.
//
// Everything that does not depend on the genome is computed here, once:
// the columns' statistics, z-scores and covariance (stats.Standardize),
// the reference distances (the all-columns genome, scored through the
// same path as every other) and the reference half of the Pearson
// correlation. A genome evaluation gathers its covariance block and
// z-scores, runs its own Jacobi eigendecomposition, projects, rescales,
// and computes its pairwise distances in one fused loop that also sums
// them. Every step performs the floating-point operations of the plain
// SelectColumns -> ComputePCA -> RescaledScores -> PairwiseDistances ->
// Pearson chain in the same order, so each fitness value is that
// chain's, bit for bit.
//
// The returned Fitness only reads that precomputed state, so it is safe
// for the concurrent evaluation Run performs when Config.Workers allows
// it: each evaluation borrows pooled buffers, and its only
// allocations are sort.Slice's small fixed overhead.
//
// minPCStd is the retention threshold for principal components (the paper
// keeps components with standard deviation > 1).
func DistanceFitness(data *stats.Matrix, minPCStd float64) (Fitness, error) {
	if data.Rows < 3 {
		return nil, fmt.Errorf("ga: distance fitness needs at least 3 rows, have %d", data.Rows)
	}
	f := &distanceFitness{std: stats.Standardize(data), minPCStd: minPCStd}
	all := make([]int, data.Cols)
	for i := range all {
		all[i] = i
	}
	var sc evalBuffers
	ref, sum, err := f.distances(&sc, all)
	if err != nil {
		return nil, fmt.Errorf("ga: reference distances: %w", err)
	}
	f.ref = newPearsonRef(ref, sum)
	return f.score, nil
}

// distanceFitness is the state DistanceFitness precomputes; apart from
// the pool it is read-only once built.
type distanceFitness struct {
	std      *stats.Standardized
	minPCStd float64
	ref      pearsonRef
	pool     sync.Pool // *evalBuffers
}

// evalBuffers holds one evaluation's reusable buffers.
type evalBuffers struct {
	ws   stats.PCAWorkspace
	dist []float64
}

// score is the Fitness: -1 for a genome the PCA rejects (an empty or
// out-of-range selection).
func (f *distanceFitness) score(selected []int) float64 {
	sc, _ := f.pool.Get().(*evalBuffers)
	if sc == nil {
		sc = new(evalBuffers)
	}
	r := -1.0
	if dist, sum, err := f.distances(sc, selected); err == nil {
		r = f.ref.corr(dist, sum)
	}
	f.pool.Put(sc)
	return r
}

// distances returns the pairwise distances between the rows in the
// rescaled-PCA space of the columns cols, and their sum in pair order.
// The distances alias sc.
func (f *distanceFitness) distances(sc *evalBuffers, cols []int) ([]float64, float64, error) {
	pca, err := sc.ws.SubsetPCA(f.std, cols)
	if err != nil {
		return nil, 0, err
	}
	scores, err := sc.ws.SubsetRescaledScores(f.std, cols, pca, pca.NumRetained(f.minPCStd))
	if err != nil {
		return nil, 0, err
	}
	var sum float64
	sc.dist, sum = stats.PairwiseDistancesInto(sc.dist, scores)
	return sc.dist, sum, nil
}

// pearsonRef is the genome-independent half of stats.Pearson(x, y) for a
// fixed reference sample x: x's deviations from its mean and their sum
// of squares.
type pearsonRef struct {
	dx  []float64
	sxx float64
}

// newPearsonRef prepares x, whose index-order sum is sum.
func newPearsonRef(x []float64, sum float64) pearsonRef {
	mx := sum / float64(len(x))
	r := pearsonRef{dx: make([]float64, len(x))}
	for i, v := range x {
		d := v - mx
		r.dx[i] = d
		r.sxx += d * d
	}
	return r
}

// corr is stats.Pearson(x, y), bit for bit, given y's index-order sum:
// the same mean, the same deviations and the same index-order sums.
func (r *pearsonRef) corr(y []float64, sum float64) float64 {
	my := sum / float64(len(y))
	y = y[:len(r.dx)]
	var sxy, syy float64
	for i, dx := range r.dx {
		dy := y[i] - my
		sxy += dx * dy
		syy += dy * dy
	}
	if r.sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(r.sxx*syy)
}

// SweepResult is one point of the correlation-vs-cardinality curve
// (Figure 1 of the paper).
type SweepResult struct {
	// Count is the number of retained characteristics.
	Count int
	// Selection is the best subset found at that cardinality.
	Selection Selection
}

// Sweep runs the genetic algorithm once per target cardinality and returns
// the best correlation found at each, reproducing Figure 1. cfg.TargetCount
// is overridden per run; each run's seed is derived from cfg.Seed with a
// SplitMix64-style hash of the cardinality index (so seed 0 is as valid as
// any other). Cardinalities are searched concurrently — the Figure 1 curve
// is embarrassingly parallel — and each slot's result is independent of
// the others, so the sweep is deterministic for any cfg.Workers.
func Sweep(numFeatures int, fitness Fitness, counts []int, cfg Config) ([]SweepResult, error) {
	out := make([]SweepResult, len(counts))
	errs := make([]error, len(counts))
	par.For(par.Workers(cfg.Workers), len(counts), func(i int) {
		runCfg := cfg
		runCfg.TargetCount = counts[i]
		runCfg.Seed = par.DeriveSeed(cfg.Seed, uint64(i))
		sel, err := Run(numFeatures, fitness, runCfg)
		if err != nil {
			errs[i] = fmt.Errorf("ga: sweep at count %d: %w", counts[i], err)
			return
		}
		out[i] = SweepResult{Count: counts[i], Selection: sel}
	})
	if err := par.FirstError(errs); err != nil {
		return nil, err
	}
	return out, nil
}
