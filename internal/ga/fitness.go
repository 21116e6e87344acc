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
// correlation. A chunk of up to stats.Lanes genomes is scored together,
// in four steps: each genome gathers its covariance block; the genomes
// of equal size run one lockstep Jacobi eigendecomposition
// (stats.SubsetPCAs); each genome is projected, rescaled and turned into
// pairwise distances by the distance-row kernel; then one loop sums the
// distances of all the chunk's genomes and one more forms their Pearson
// sums, so the genomes' serial addition chains overlap. Every step
// performs the floating-point operations of the plain SelectColumns ->
// ComputePCA -> RescaledScores -> PairwiseDistances -> Pearson chain in
// the same order, so each fitness value is that chain's, bit for bit,
// whatever chunk the genome is scored in.
//
// The returned Fitness only reads that precomputed state, so it is safe
// for the concurrent evaluation Run performs when Config.Workers allows
// it: each chunk borrows pooled buffers, and its only allocations are
// sort.Slice's small fixed overhead per genome.
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
	var ws stats.PCAWorkspace
	ref, err := f.distances(&ws, all, nil)
	if err != nil {
		return nil, fmt.Errorf("ga: reference distances: %w", err)
	}
	var sum float64
	for _, v := range ref {
		sum += v
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

// evalBuffers holds one chunk's reusable buffers, one set per lane.
type evalBuffers struct {
	ws   [stats.Lanes]stats.PCAWorkspace
	dist [stats.Lanes][]float64
}

// score is the Fitness: -1 for a genome the PCA rejects (an empty or
// out-of-range selection).
func (f *distanceFitness) score(genomes [][]int, scores []float64) {
	sc, _ := f.pool.Get().(*evalBuffers)
	if sc == nil {
		sc = new(evalBuffers)
	}
	for len(genomes) > 0 {
		n := min(len(genomes), stats.Lanes)
		f.scoreLanes(sc, genomes[:n], scores[:n])
		genomes, scores = genomes[n:], scores[n:]
	}
	f.pool.Put(sc)
}

// scoreLanes scores up to stats.Lanes genomes, lane l on sc's buffers l.
func (f *distanceFitness) scoreLanes(sc *evalBuffers, genomes [][]int, scores []float64) {
	var ws [stats.Lanes]*stats.PCAWorkspace
	var pcas [stats.Lanes]*stats.PCA
	var errs [stats.Lanes]error
	for l := range genomes {
		ws[l] = &sc.ws[l]
	}
	n := len(genomes)
	stats.SubsetPCAs(f.std, ws[:n], genomes, pcas[:n], errs[:n])

	// The scored lanes' distances, padded to a full set of lanes with
	// copies of the first, whose results are dropped.
	var dists [stats.Lanes][]float64
	var lane [stats.Lanes]int
	live := 0
	for l := range genomes {
		scores[l] = -1
		if errs[l] != nil {
			continue
		}
		d, err := ws[l].SubsetDistances(f.std, genomes[l], pcas[l], pcas[l].NumRetained(f.minPCStd), sc.dist[l])
		if err != nil {
			continue
		}
		sc.dist[l] = d
		dists[live], lane[live] = d, l
		live++
	}
	if live == 0 {
		return
	}
	for l := live; l < stats.Lanes; l++ {
		dists[l] = dists[0]
	}
	r := f.ref.corrLanes(&dists)
	for i, l := range lane[:live] {
		scores[l] = r[i]
	}
}

// distances returns the pairwise distances between the rows in the
// rescaled-PCA space of the columns cols, on ws and into dst.
func (f *distanceFitness) distances(ws *stats.PCAWorkspace, cols []int, dst []float64) ([]float64, error) {
	pca, err := ws.SubsetPCA(f.std, cols)
	if err != nil {
		return nil, err
	}
	return ws.SubsetDistances(f.std, cols, pca, pca.NumRetained(f.minPCStd), dst)
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

// corrLanes is stats.Pearson(x, y) for each of four samples y, bit for
// bit: each y's index-order sum and mean, then its index-order sums of
// dx·dy and dy². Each loop steps all four samples together, so their
// serial addition chains overlap instead of running one after the other.
func (r *pearsonRef) corrLanes(ys *[4][]float64) [4]float64 {
	n := len(r.dx)
	y0, y1, y2, y3 := ys[0][:n], ys[1][:n], ys[2][:n], ys[3][:n]
	var s0, s1, s2, s3 float64
	for i := range y0 {
		s0 += y0[i]
		s1 += y1[i]
		s2 += y2[i]
		s3 += y3[i]
	}
	nf := float64(n)
	m0, m1, m2, m3 := s0/nf, s1/nf, s2/nf, s3/nf
	var sxy0, sxy1, sxy2, sxy3, syy0, syy1, syy2, syy3 float64
	for i, dx := range r.dx {
		d0 := y0[i] - m0
		d1 := y1[i] - m1
		d2 := y2[i] - m2
		d3 := y3[i] - m3
		sxy0 += dx * d0
		sxy1 += dx * d1
		sxy2 += dx * d2
		sxy3 += dx * d3
		syy0 += d0 * d0
		syy1 += d1 * d1
		syy2 += d2 * d2
		syy3 += d3 * d3
	}
	return [4]float64{r.finish(sxy0, syy0), r.finish(sxy1, syy1), r.finish(sxy2, syy2), r.finish(sxy3, syy3)}
}

// finish is Pearson's last step for one sample's sums.
func (r *pearsonRef) finish(sxy, syy float64) float64 {
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
