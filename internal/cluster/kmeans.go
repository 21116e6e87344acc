// Package cluster implements the phase-clustering step of the methodology:
// k-means (with k-means++ seeding and multiple random restarts) scored by
// the Bayesian Information Criterion, plus cluster representatives, weights
// and coverage accounting.
//
// Clustering is parallel and worker-count deterministic: restarts, Lloyd
// assignment passes and the SelectK model sweep spread over par workers,
// with per-restart seeds derived by hashing (never a shared *rand.Rand)
// and floating-point reductions performed in a fixed chunk order, so the
// Result is byte-identical whether Options.Workers is 1 or 64.
//
// Both halves of a fit skip only work that provably cannot change its
// result, so every fit is bit-identical to plain k-means++ seeding and
// full-scan Lloyd iterations (reference_test.go pins this):
//
//   - Seeding keeps each row's nearest seed. A new seed more than twice
//     the row's distance from that seed is farther from the row than the
//     seed is (triangle inequality), so the row's D² cannot fall and the
//     row is skipped.
//   - Lloyd follows Yinyang k-means (Ding et al., ICML 2015). The centers
//     are split once per fit into ceil(k/32) groups (groups.go); each row
//     keeps an upper bound on the distance to its assigned center and one
//     lower bound per group on the distance to that group's other
//     centers, each widened only by its own group's largest center move.
//     A row whose bounds separate skips the scan; otherwise it rescans
//     only the groups whose bounds fail. Bounds carry a round-off margin,
//     ties break to the lowest g and then the lowest center index exactly
//     as a full scan does, and the first and final passes are full scans.
//
// The assignment inner loop — the O(n·k·d) cost center of the whole
// analysis — runs on the internal/kernel column scan over a transposed,
// group-contiguous block of centers. Bound decisions are per-row, never
// shared across rows or workers, so the fit stays deterministic at any
// worker count.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/stats"
)

// Options configures a k-means run.
type Options struct {
	// MaxIters bounds Lloyd iterations per restart (default 100).
	MaxIters int
	// Restarts is how many random initializations to evaluate; the
	// clustering with the highest BIC is kept (default 3).
	Restarts int
	// Seed makes the run deterministic. Every seed — including 0 — is a
	// valid, distinct seed: per-restart randomness is derived from it
	// with a SplitMix64-style hash (par.DeriveSeed), so there is no
	// "unseeded" sentinel at this layer. (core.Config.Validate treats a
	// zero Options.Seed as "inherit the pipeline seed" before the value
	// reaches this package; that inheritance is documented there.)
	Seed int64
	// Workers bounds clustering parallelism; values < 1 mean GOMAXPROCS.
	// The result is identical for any worker count.
	Workers int
	// Metrics, when non-nil, receives clustering counters:
	// kmeans.restarts, kmeans.refines and kmeans.selectk_fits (fits
	// started), kmeans.lloyd_iters (Lloyd iterations, not counting the
	// final exact pass), kmeans.center_evals (row×center distance
	// evaluations in Lloyd) and kmeans.seed_evals (distance evaluations
	// in k-means++ seeding). Metrics never influence the fit, so
	// determinism is unaffected.
	Metrics *obs.Metrics `json:"-"`
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MaxIters <= 0 {
		out.MaxIters = 100
	}
	if out.Restarts <= 0 {
		out.Restarts = 3
	}
	out.Workers = par.Workers(out.Workers)
	return out
}

// Result is a fitted clustering.
type Result struct {
	// K is the number of clusters.
	K int
	// Assignments maps each data row to its cluster.
	Assignments []int
	// Centers is the K x dims matrix of cluster centroids.
	Centers *stats.Matrix
	// Sizes is the number of points per cluster.
	Sizes []int
	// Inertia is the total within-cluster sum of squared distances.
	Inertia float64
	// BIC is the Bayesian Information Criterion score of the clustering
	// under a spherical-Gaussian mixture model (higher is better).
	BIC float64
}

// lloydScratch is the pooled per-restart working set: assignment,
// distance and upper-bound arrays, the center matrices and the
// accumulator matrix. Every field is fully (re)initialized before it is
// read, so a recycled scratch can never leak state between restarts —
// which is what keeps pooled runs bit-identical to fresh-allocation runs.
// The per-group lower bounds are allocated per fit instead: pooled, their
// n·groups floats would stay live between fits and raise the GC goal.
type lloydScratch struct {
	assign     []int     // assigned center; each row's nearest seed while seeding
	dist2      []float64 // exact d² to the assigned center after a full pass or refresh; D² while seeding
	upper      []float64 // upper bound on d(x, assigned center), before the round-off margin
	centerNorm []float64
	delta      []float64 // per-center move distance of the last update
	sizes      []int
	sums       *stats.Matrix
	centers    *stats.Matrix
	prev       *stats.Matrix // centers before the last update
}

var scratchPool sync.Pool

// The grow helpers live in internal/kernel (slices) and stats
// (matrices) — shared with the stats workspace instead of duplicated
// here. Thin aliases keep the call sites short.
func growF64(s []float64, n int) []float64 { return kernel.GrowFloats(s, n) }

func growInts(s []int, n int) []int { return kernel.GrowInts(s, n) }

func growMatrix(m *stats.Matrix, rows, cols int) *stats.Matrix {
	return stats.GrowMatrix(m, rows, cols)
}

// getScratch returns a pooled scratch resized for an (n rows, k
// clusters, d dims) restart. Contents are unspecified.
func getScratch(n, k, d int) *lloydScratch {
	sc, _ := scratchPool.Get().(*lloydScratch)
	if sc == nil {
		sc = &lloydScratch{}
	}
	sc.assign = growInts(sc.assign, n)
	sc.dist2 = growF64(sc.dist2, n)
	sc.upper = growF64(sc.upper, n)
	sc.centerNorm = growF64(sc.centerNorm, k)
	sc.delta = growF64(sc.delta, k)
	sc.sizes = growInts(sc.sizes, k)
	sc.sums = growMatrix(sc.sums, k, d)
	sc.centers = growMatrix(sc.centers, k, d)
	sc.prev = growMatrix(sc.prev, k, d)
	return sc
}

// fitCounters are one fit's metric sinks; nil counters are no-ops.
type fitCounters struct {
	iters, centerEvals, seedEvals *obs.Counter
}

func newFitCounters(m *obs.Metrics) fitCounters {
	return fitCounters{
		iters:       m.Counter("kmeans.lloyd_iters"),
		centerEvals: m.Counter("kmeans.center_evals"),
		seedEvals:   m.Counter("kmeans.seed_evals"),
	}
}

// KMeans clusters the rows of data into k clusters. Restarts run
// concurrently, each on a sub-seed derived from Options.Seed, and the
// best-BIC restart wins with ties broken by restart index — so the result
// does not depend on Options.Workers.
func KMeans(data *stats.Matrix, k int, opts Options) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("cluster: k = %d < 1", k)
	}
	if data.Rows < k {
		return nil, fmt.Errorf("cluster: %d rows cannot form %d clusters", data.Rows, k)
	}
	o := opts.withDefaults()

	o.Metrics.Add("kmeans.restarts", int64(o.Restarts))
	ctr := newFitCounters(o.Metrics)

	// |x|² per data row, identical across restarts: computed once and
	// shared read-only by every restart's assignment passes.
	dataNorm := make([]float64, data.Rows)
	kernel.RowSquaredNorms(data.Data, data.Rows, data.Cols, dataNorm)

	results := make([]*Result, o.Restarts)
	scratches := make([]*lloydScratch, o.Restarts)
	par.For(o.Workers, o.Restarts, func(r int) {
		rng := rand.New(rand.NewSource(par.DeriveSeed(o.Seed, uint64(r))))
		sc := getScratch(data.Rows, k, data.Cols)
		scratches[r] = sc
		res := lloyd(data, k, o.MaxIters, o.Workers, rng, ctr, dataNorm, sc)
		res.BIC = bic(data, res)
		results[r] = res
	})

	best := results[0]
	for _, res := range results[1:] {
		if res.BIC > best.BIC {
			best = res
		}
	}
	// The winning restart's buffers belong to a pooled scratch; copy them
	// out before every scratch goes back to the pool.
	out := &Result{
		K:           best.K,
		Assignments: append([]int(nil), best.Assignments...),
		Centers:     best.Centers.Clone(),
		Sizes:       append([]int(nil), best.Sizes...),
		Inertia:     best.Inertia,
		BIC:         best.BIC,
	}
	for _, sc := range scratches {
		scratchPool.Put(sc)
	}
	return out, nil
}

// Refine warm-starts a single pruned Lloyd fit from the given initial
// centroids (k = initial.Rows) instead of k-means++ seeding and random
// restarts — the incremental engine's "the dataset grew a little, the
// old centroids are almost right" path. The fit runs the exact same
// lloydIterate core as KMeans (per-group bounds, deterministic
// empty-cluster reseeding, pooled scratch), so it is deterministic and
// worker-count independent.
//
// The second return value is the centroid shift: the largest distance
// any centroid moved from its initial position, normalized by the root
// mean squared row norm of data (so it is comparable across datasets;
// un-normalized when that scale is zero). Callers use it as the
// warm-start trust gate — a shift above their tolerance means the
// cached centroids no longer describe the grown dataset and a full
// restart-searched KMeans is warranted.
func Refine(data *stats.Matrix, initial *stats.Matrix, opts Options) (*Result, float64, error) {
	if initial == nil || initial.Rows < 1 {
		return nil, 0, fmt.Errorf("cluster: refine needs at least 1 initial centroid")
	}
	k := initial.Rows
	if initial.Cols != data.Cols {
		return nil, 0, fmt.Errorf("cluster: refining %d-dim data from %d-dim centroids", data.Cols, initial.Cols)
	}
	if data.Rows < k {
		return nil, 0, fmt.Errorf("cluster: %d rows cannot form %d clusters", data.Rows, k)
	}
	o := opts.withDefaults()
	o.Metrics.Add("kmeans.refines", 1)

	dataNorm := make([]float64, data.Rows)
	kernel.RowSquaredNorms(data.Data, data.Rows, data.Cols, dataNorm)

	sc := getScratch(data.Rows, k, data.Cols)
	copy(sc.centers.Data, initial.Data)
	res := lloydIterate(data, k, o.MaxIters, o.Workers, newFitCounters(o.Metrics), dataNorm, sc)
	res.BIC = bic(data, res)

	var maxMove float64
	for c := 0; c < k; c++ {
		if dc := kernel.Distance(initial.Row(c), res.Centers.Row(c)); dc > maxMove {
			maxMove = dc
		}
	}
	var scale float64
	for _, v := range dataNorm {
		scale += v
	}
	scale = math.Sqrt(scale / float64(data.Rows))
	shift := maxMove
	if scale > 0 {
		shift = maxMove / scale
	}

	out := &Result{
		K:           res.K,
		Assignments: append([]int(nil), res.Assignments...),
		Centers:     res.Centers.Clone(),
		Sizes:       append([]int(nil), res.Sizes...),
		Inertia:     res.Inertia,
		BIC:         res.BIC,
	}
	scratchPool.Put(sc)
	return out, shift, nil
}

// assignFull is the exact Lloyd assignment pass: every row scans every
// center — one column-kernel call over the whole block — and records its
// assignment (ties to the lowest g, then the lowest center index), exact
// squared distance, upper bound (the distance to the winner) and
// per-group lower bounds (the distance to each group's nearest other
// center). It returns how many assignments changed. Rows are processed in
// fixed-grain chunks, each row writing only its own slots, so the output
// is identical for any worker count.
func assignFull(data *stats.Matrix, dataNorm []float64, sc *lloydScratch, cg *centerGroups, lower []float64, workers int) int {
	n, groups := data.Rows, len(cg.size)
	changedParts := make([]int, par.Chunks(n, 0))
	par.ForChunks(workers, n, 0, func(chunk, lo, hi int) {
		buf := getScanBuf(cg.width, groups)
		dots, m1, m2 := buf.dots, buf.m1, buf.m2
		changed := 0
		for i := lo; i < hi; i++ {
			kernel.DotColsRange(data.Row(i), cg.ct, cg.width, 0, cg.width, dots)
			bestG := math.Inf(1)
			for g := 0; g < groups; g++ {
				m1[g], m2[g] = cg.groupMin2(g, dots)
				bestG = min(bestG, m1[g])
			}
			// The winner is the lowest center index holding bestG; each
			// group's first slot at bestG is its lowest such index.
			best, slot := -1, -1
			for g := 0; g < groups; g++ {
				if m1[g] == bestG {
					if s := cg.firstAt(g, dots, bestG); s >= 0 && (best < 0 || cg.slotCenter[s] < best) {
						best, slot = cg.slotCenter[s], s
					}
				}
			}
			if best < 0 { // NaN data: no slot holds the minimum
				best, slot = 0, cg.slotOf[0]
			}
			bestG = cg.slotNorm[slot] - 2*dots[slot]
			lb := lower[i*groups : (i+1)*groups]
			bg := cg.groupOf[best]
			for g := range lb {
				m := m1[g]
				if g == bg {
					m = m2[g]
				}
				lb[g] = rowDist(dataNorm[i], m)
			}
			// g differs from |x-c|² by the constant |x|²; the argmin is
			// the same and the addition is deferred to here.
			d2 := dataNorm[i] + bestG
			if d2 < 0 {
				d2 = 0
			}
			if best != sc.assign[i] {
				sc.assign[i] = best
				changed++
			}
			sc.dist2[i] = d2
			sc.upper[i] = math.Sqrt(d2)
		}
		changedParts[chunk] = changed
		scanPool.Put(buf)
	})
	total := 0
	for _, c := range changedParts {
		total += c
	}
	return total
}

// assignGrouped is the pruned assignment pass. Each row first widens its
// bounds by the last update's moves: the upper bound by the assigned
// center's move, each group's lower bound by that group's largest move.
// If every lower bound clears the upper bound by margin, no other center
// can win and the row skips the scan. Otherwise the upper bound is
// tightened to the exact distance (kernel.DotSerial: the bits the column
// kernel computes for that center in a full scan) and re-tested, and a
// row that still fails rescans only the groups whose bounds fail. The
// assignments are exactly assignFull's. Every decision is a pure per-row
// function of that row's own state, so the pass is deterministic for any
// worker count. It returns the number of changed assignments and of
// row×center evaluations.
func assignGrouped(data *stats.Matrix, dataNorm []float64, sc *lloydScratch, cg *centerGroups, lower []float64, margin float64, workers int) (int, int64) {
	n, groups := data.Rows, len(cg.size)
	centers := sc.centers
	changedParts := make([]int, par.Chunks(n, 0))
	evalParts := make([]int64, len(changedParts))
	par.ForChunks(workers, n, 0, func(chunk, lo, hi int) {
		buf := getScanBuf(cg.width, groups)
		dots, m1, m2 := buf.dots, buf.m1, buf.m2
		changed := 0
		var evals int64
		for i := lo; i < hi; i++ {
			a := sc.assign[i]
			u := sc.upper[i] + sc.delta[a]
			lb := lower[i*groups : (i+1)*groups]
			minL := math.Inf(1)
			for g, l := range lb {
				l -= cg.delta[g]
				lb[g] = l
				minL = min(minL, l)
			}
			if minL-u > margin {
				sc.upper[i] = u
				continue
			}
			x := data.Row(i)
			aG := sc.centerNorm[a] - 2*kernel.DotSerial(x, centers.Row(a))
			evals++
			u = rowDist(dataNorm[i], aG)
			if minL-u > margin {
				sc.upper[i] = u
				continue
			}
			best, bestG := a, aG
			scanned := buf.scanned[:0]
			for g, l := range lb {
				if l-u > margin {
					continue
				}
				kernel.DotColsRange(x, cg.ct, cg.width, cg.start[g], cg.start[g+1], dots)
				evals += int64(cg.size[g])
				m1[g], m2[g] = cg.groupMin2(g, dots)
				scanned = append(scanned, g)
				if m := m1[g]; m <= bestG {
					if s := cg.firstAt(g, dots, m); s >= 0 && (m < bestG || cg.slotCenter[s] < best) {
						best, bestG = cg.slotCenter[s], cg.slotNorm[s]-2*dots[s]
					}
				}
			}
			ga, bg := cg.groupOf[a], cg.groupOf[best]
			aScanned := false
			for _, g := range scanned {
				m := m1[g]
				if g == bg {
					m = m2[g]
				}
				lb[g] = rowDist(dataNorm[i], m)
				aScanned = aScanned || g == ga
			}
			if best != a {
				// The old center is now one of its group's others.
				if !aScanned {
					lb[ga] = min(lb[ga], u)
				}
				sc.assign[i] = best
				changed++
				u = rowDist(dataNorm[i], bestG)
			}
			sc.upper[i] = u
		}
		changedParts[chunk] = changed
		evalParts[chunk] = evals
		scanPool.Put(buf)
	})
	total := 0
	for _, c := range changedParts {
		total += c
	}
	var evals int64
	for _, e := range evalParts {
		evals += e
	}
	return total, evals
}

// exactAssignedDist2 refreshes dist2 with the exact squared distance of
// every row to its currently assigned center — needed before an
// empty-cluster reseed, where pruned rows hold stale values. Each g is
// the column kernel's serial sum (kernel.DotSerial), so every value
// carries the bits a full scan would have stored.
func exactAssignedDist2(data *stats.Matrix, dataNorm []float64, sc *lloydScratch, workers int) {
	par.ForChunks(workers, data.Rows, 0, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			c := sc.assign[i]
			d2 := dataNorm[i] + (sc.centerNorm[c] - 2*kernel.DotSerial(data.Row(i), sc.centers.Row(c)))
			if d2 < 0 {
				d2 = 0
			}
			sc.dist2[i] = d2
		}
	})
}

// lloyd runs one k-means fit with k-means++ seeding. Seeding and center
// updates are serial (they are O(n·d), dwarfed by the O(n·k·d) assignment
// passes, and seeding is inherently sequential in rng consumption); the
// assignment and inertia passes fan out over workers. ctr receives the
// iteration and evaluation counts. dataNorm carries the shared row-norm
// cache; sc supplies every working buffer, and the returned Result
// aliases sc (KMeans copies the winner out before recycling).
func lloyd(data *stats.Matrix, k, maxIters, workers int, rng *rand.Rand, ctr fitCounters, dataNorm []float64, sc *lloydScratch) *Result {
	ctr.seedEvals.Add(seedPlusPlus(data, k, rng, sc.centers, sc.dist2, sc.assign))
	return lloydIterate(data, k, maxIters, workers, ctr, dataNorm, sc)
}

// lloydIterate is the seeding-independent core of lloyd: it iterates to
// convergence from whatever centers sc.centers already holds. Sharing it
// between the cold k-means++ path and the warm-start Refine path keeps
// the two bit-identical whenever they start from the same centers.
func lloydIterate(data *stats.Matrix, k, maxIters, workers int, ctr fitCounters, dataNorm []float64, sc *lloydScratch) *Result {
	n, d := data.Rows, data.Cols
	centers := sc.centers
	for i := range sc.assign {
		sc.assign[i] = -1
	}
	centerNorm := sc.centerNorm
	kernel.RowSquaredNorms(centers.Data, k, d, centerNorm)
	margin := boundMargin(d, dataNorm, centerNorm)
	cg := newCenterGroups(centers, k)
	cg.load(centers, centerNorm)
	lower := make([]float64, n*len(cg.size))
	full := int64(n) * int64(k)

	var evals int64
	for iter := 0; iter < maxIters; iter++ {
		var changed int
		if iter == 0 {
			changed = assignFull(data, dataNorm, sc, cg, lower, workers)
			evals += full
		} else {
			var e int64
			changed, e = assignGrouped(data, dataNorm, sc, cg, lower, margin, workers)
			evals += e
		}
		ctr.iters.Inc()
		if changed == 0 && iter > 0 {
			break
		}
		// Recompute centers.
		for i := range sc.sums.Data {
			sc.sums.Data[i] = 0
		}
		for i := range sc.sizes {
			sc.sizes[i] = 0
		}
		for i := 0; i < n; i++ {
			c := sc.assign[i]
			sc.sizes[c]++
			kernel.Add(sc.sums.Row(c), data.Row(i))
		}
		hasEmpty := false
		for _, s := range sc.sizes {
			if s == 0 {
				hasEmpty = true
				break
			}
		}
		if hasEmpty {
			// Reseeds pick the point farthest from its assigned center;
			// pruned rows may hold stale distances, so refresh them
			// against the centers the assignment pass used.
			exactAssignedDist2(data, dataNorm, sc, workers)
			evals += int64(n)
		}
		copy(sc.prev.Data, centers.Data)
		for c := 0; c < k; c++ {
			if sc.sizes[c] == 0 {
				// Re-seed an empty cluster at the point farthest from
				// its assigned center. Zeroing the winner keeps a second
				// empty cluster from grabbing the same point.
				far, farDist := 0, -1.0
				for i, dd := range sc.dist2 {
					if dd > farDist {
						far, farDist = i, dd
					}
				}
				copy(centers.Row(c), data.Row(far))
				sc.dist2[far] = 0
				continue
			}
			src := sc.sums.Row(c)
			dst := centers.Row(c)
			inv := 1 / float64(sc.sizes[c])
			for j := range dst {
				dst[j] = src[j] * inv
			}
		}
		// How far every center, and so every group, moved, for the next
		// pass's bound updates.
		clear(cg.delta)
		for c := 0; c < k; c++ {
			dc := kernel.Distance(sc.prev.Row(c), centers.Row(c))
			sc.delta[c] = dc
			g := cg.groupOf[c]
			cg.delta[g] = max(cg.delta[g], dc)
		}
		kernel.RowSquaredNorms(centers.Data, k, d, centerNorm)
		cg.load(centers, centerNorm)
	}

	// Final exact assignment pass and inertia, the latter reduced from
	// per-chunk partials in chunk order (worker-count independent). The
	// full scan also guarantees the returned assignments and distances
	// are exact regardless of how the bounds steered the iteration.
	assignFull(data, dataNorm, sc, cg, lower, workers)
	evals += full
	ctr.centerEvals.Add(evals)
	for i := range sc.sizes {
		sc.sizes[i] = 0
	}
	for _, c := range sc.assign {
		sc.sizes[c]++
	}
	inertiaParts := make([]float64, par.Chunks(n, 0))
	par.ForChunks(workers, n, 0, func(chunk, lo, hi int) {
		var s float64
		for i := lo; i < hi; i++ {
			s += sc.dist2[i]
		}
		inertiaParts[chunk] = s
	})
	var inertia float64
	for _, p := range inertiaParts {
		inertia += p
	}
	return &Result{K: k, Assignments: sc.assign, Centers: centers, Sizes: sc.sizes, Inertia: inertia}
}

// seedSkip is the pruned seeding test's factor: a row whose nearest seed
// lies more than sqrt(seedSkip) times the row's D distance from the new
// seed cannot move closer. The triangle inequality needs a factor of 4;
// the 1e-9 margin covers the round-off of the computed squared distances
// (all sums of squares, relative error about d·2⁻⁵³) many times over.
const seedSkip = 4 * (1 + 1e-9)

// seedPlusPlus selects k initial centers with the k-means++ D² weighting,
// writing them into centers, using dist2 as its D² working array and near
// as each row's nearest chosen seed. It returns the number of distance
// evaluations.
//
// The rng draws, the serial D² total and so the chosen seeds are those of
// the plain algorithm; the only saving is exact: adding seed c, it first
// measures c against every earlier seed, and a row whose nearest seed s
// has |c-s|² > 4·D²(row) is farther from c than from s (|x-c| ≥ |c-s| -
// |x-s| > |x-s|), so its D² cannot fall and the row is skipped.
func seedPlusPlus(data *stats.Matrix, k int, rng *rand.Rand, centers *stats.Matrix, dist2 []float64, near []int) int64 {
	n := data.Rows
	first := rng.Intn(n)
	copy(centers.Row(0), data.Row(first))

	for i := 0; i < n; i++ {
		dist2[i] = kernel.SquaredDistance(data.Row(i), centers.Row(0))
		near[i] = 0
	}
	evals := int64(n)
	seedD2 := make([]float64, k)
	for c := 1; c < k; c++ {
		var total float64
		for _, v := range dist2[:n] {
			total += v
		}
		idx := 0
		if total > 0 {
			x := rng.Float64() * total
			for i, v := range dist2[:n] {
				if x < v {
					idx = i
					break
				}
				x -= v
			}
		} else {
			idx = rng.Intn(n)
		}
		seed := centers.Row(c)
		copy(seed, data.Row(idx))
		for s := 0; s < c; s++ {
			seedD2[s] = kernel.SquaredDistance(seed, centers.Row(s))
		}
		evals += int64(c)
		for i := 0; i < n; i++ {
			if seedD2[near[i]] <= seedSkip*dist2[i] {
				evals++
				if d2 := kernel.SquaredDistance(data.Row(i), seed); d2 < dist2[i] {
					dist2[i] = d2
					near[i] = c
				}
			}
		}
	}
	return evals
}

// bic scores a clustering with the spherical-Gaussian Bayesian Information
// Criterion (Pelleg & Moore's X-means formulation): higher is better. The
// score trades goodness of fit against the number of clusters, as the
// paper's section 2.6 describes.
func bic(data *stats.Matrix, res *Result) float64 {
	r := float64(data.Rows)
	m := float64(data.Cols)
	k := float64(res.K)
	if data.Rows <= res.K {
		return math.Inf(-1)
	}
	sigma2 := res.Inertia / (m * (r - k))
	if sigma2 < 1e-12 {
		sigma2 = 1e-12
	}
	var loglik float64
	for _, size := range res.Sizes {
		if size > 0 {
			rn := float64(size)
			loglik += rn * math.Log(rn/r)
		}
	}
	loglik += -(r*m/2)*math.Log(2*math.Pi*sigma2) - m*(r-k)/2
	params := (k - 1) + m*k + 1
	return loglik - params/2*math.Log(r)
}

// Representatives returns, for each cluster, the index of the data row
// closest to the cluster center — the paper's per-cluster representative
// instruction interval. It uses the same cached-norm expansion as the
// assignment kernel (|x-c|² = |x|² - 2·x·c + |c|², squared distances
// compare monotonically) instead of a per-row euclid call.
func (r *Result) Representatives(data *stats.Matrix) []int {
	reps := make([]int, r.K)
	best := make([]float64, r.K)
	for c := range reps {
		reps[c] = -1
		best[c] = math.Inf(1)
	}
	centerNorm := make([]float64, r.K)
	kernel.RowSquaredNorms(r.Centers.Data, r.K, r.Centers.Cols, centerNorm)
	for i := 0; i < data.Rows; i++ {
		c := r.Assignments[i]
		row := data.Row(i)
		d2 := kernel.SquaredNorm(row) + centerNorm[c] - 2*kernel.Dot(row, r.Centers.Row(c))
		if d2 < 0 {
			d2 = 0
		}
		if d2 < best[c] {
			best[c] = d2
			reps[c] = i
		}
	}
	return reps
}

// Weights returns each cluster's fraction of the data set.
func (r *Result) Weights() []float64 {
	out := make([]float64, r.K)
	total := float64(len(r.Assignments))
	if total == 0 {
		return out
	}
	for c, s := range r.Sizes {
		out[c] = float64(s) / total
	}
	return out
}

// ByWeight returns cluster indices sorted by decreasing weight.
func (r *Result) ByWeight() []int {
	idx := make([]int, r.K)
	for i := range idx {
		idx[i] = i
	}
	// sort.Slice is unstable, so equal-size clusters need an explicit
	// tie-break on the cluster index to keep the prominent-phase order
	// (and everything derived from it) deterministic.
	sort.Slice(idx, func(a, b int) bool {
		sa, sb := r.Sizes[idx[a]], r.Sizes[idx[b]]
		if sa != sb {
			return sa > sb
		}
		return idx[a] < idx[b]
	})
	return idx
}

// AvgWithinClusterDistance returns the mean distance of points to their
// cluster center — the "variability within each cluster" of the paper's
// coverage/variability trade-off. Like Representatives, it reuses cached
// center norms rather than recomputing a euclid difference per row.
func (r *Result) AvgWithinClusterDistance(data *stats.Matrix) float64 {
	if data.Rows == 0 {
		return 0
	}
	centerNorm := make([]float64, r.K)
	kernel.RowSquaredNorms(r.Centers.Data, r.K, r.Centers.Cols, centerNorm)
	var total float64
	for i := 0; i < data.Rows; i++ {
		c := r.Assignments[i]
		row := data.Row(i)
		d2 := kernel.SquaredNorm(row) + centerNorm[c] - 2*kernel.Dot(row, r.Centers.Row(c))
		if d2 < 0 {
			d2 = 0
		}
		total += math.Sqrt(d2)
	}
	return total / float64(data.Rows)
}

// SelectK runs k-means for every k in [kmin, kmax] and picks the result
// with the SimPoint heuristic (Sherwood et al.): the smallest k whose BIC
// score reaches at least frac (typically 0.9) of the way from the worst to
// the best BIC observed. Raw BIC maximization is too conservative on small
// samples; the heuristic trades a little fit for far fewer clusters.
//
// The k range is evaluated concurrently (this is the inner loop of the
// per-benchmark timeline analyses); each k's fit is independent and
// deterministic, and the winner is chosen by a serial scan in ascending k,
// so the selection does not depend on opts.Workers.
func SelectK(data *stats.Matrix, kmin, kmax int, frac float64, opts Options) (*Result, error) {
	if kmin < 1 || kmax < kmin {
		return nil, fmt.Errorf("cluster: invalid k range [%d,%d]", kmin, kmax)
	}
	if kmax >= data.Rows {
		kmax = data.Rows - 1
	}
	if kmax < kmin {
		kmax = kmin
	}
	if frac < 0 || frac > 1 {
		return nil, fmt.Errorf("cluster: BIC fraction %v out of [0,1]", frac)
	}
	results := make([]*Result, kmax-kmin+1)
	errs := make([]error, len(results))
	opts.Metrics.Add("kmeans.selectk_fits", int64(len(results)))
	par.For(par.Workers(opts.Workers), len(results), func(i int) {
		results[i], errs[i] = KMeans(data, kmin+i, opts)
	})
	if err := par.FirstError(errs); err != nil {
		return nil, err
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, res := range results {
		if res.BIC < lo {
			lo = res.BIC
		}
		if res.BIC > hi {
			hi = res.BIC
		}
	}
	if hi <= lo {
		return results[0], nil // all scores equal: smallest k
	}
	threshold := lo + frac*(hi-lo)
	for _, res := range results {
		if res.BIC >= threshold {
			return res, nil
		}
	}
	return results[len(results)-1], nil
}
