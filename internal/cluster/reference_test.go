package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/stats"
)

// This file holds the unpruned k-means the package's fits must equal bit
// for bit: k-means++ seeding that measures every row against every new
// seed, and Lloyd iterations that scan every center on every pass with no
// bounds. Everything else — restart seeds, center updates, empty-cluster
// reseeds, chunk-ordered inertia, BIC — is the plain algorithm as the
// package documents it.

// refSeedPlusPlus is k-means++ seeding without the triangle-inequality
// skip.
func refSeedPlusPlus(data *stats.Matrix, k int, rng *rand.Rand, centers *stats.Matrix, dist2 []float64) {
	n := data.Rows
	first := rng.Intn(n)
	copy(centers.Row(0), data.Row(first))
	for i := 0; i < n; i++ {
		dist2[i] = kernel.SquaredDistance(data.Row(i), centers.Row(0))
	}
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
		copy(centers.Row(c), data.Row(idx))
		for i := 0; i < n; i++ {
			if d2 := kernel.SquaredDistance(data.Row(i), centers.Row(c)); d2 < dist2[i] {
				dist2[i] = d2
			}
		}
	}
}

// refAssign scans every center for every row in center order (the first
// smallest g wins) and returns how many assignments changed.
func refAssign(data, centers *stats.Matrix, assign []int, dist2 []float64) int {
	k, d := centers.Rows, centers.Cols
	norms := make([]float64, k)
	kernel.RowSquaredNorms(centers.Data, k, d, norms)
	ct := make([]float64, k*d)
	kernel.Transpose(centers.Data, k, d, ct)
	dots := make([]float64, k)
	changed := 0
	for i := 0; i < data.Rows; i++ {
		x := data.Row(i)
		kernel.DotCols(x, ct, dots, k)
		best, bestG := 0, math.Inf(1)
		for c := 0; c < k; c++ {
			if g := norms[c] - 2*dots[c]; g < bestG {
				best, bestG = c, g
			}
		}
		d2 := kernel.SquaredNorm(x) + bestG
		if d2 < 0 {
			d2 = 0
		}
		if best != assign[i] {
			assign[i] = best
			changed++
		}
		dist2[i] = d2
	}
	return changed
}

// refLloyd iterates full-scan Lloyd from the given centers (modified in
// place) and returns the fit, counting iterations into iters.
func refLloyd(data, centers *stats.Matrix, maxIters int, iters *obs.Counter) *Result {
	n, k, d := data.Rows, centers.Rows, data.Cols
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	dist2 := make([]float64, n)
	sizes := make([]int, k)
	sums := stats.NewMatrix(k, d)
	for iter := 0; iter < maxIters; iter++ {
		changed := refAssign(data, centers, assign, dist2)
		iters.Inc()
		if changed == 0 && iter > 0 {
			break
		}
		clear(sums.Data)
		clear(sizes)
		for i, c := range assign {
			sizes[c]++
			kernel.Add(sums.Row(c), data.Row(i))
		}
		for c := 0; c < k; c++ {
			if sizes[c] == 0 {
				far, farDist := 0, -1.0
				for i, dd := range dist2 {
					if dd > farDist {
						far, farDist = i, dd
					}
				}
				copy(centers.Row(c), data.Row(far))
				dist2[far] = 0
				continue
			}
			inv := 1 / float64(sizes[c])
			dst, src := centers.Row(c), sums.Row(c)
			for j := range dst {
				dst[j] = src[j] * inv
			}
		}
	}
	refAssign(data, centers, assign, dist2)
	clear(sizes)
	for _, c := range assign {
		sizes[c]++
	}
	// Inertia in the package's fixed chunk order.
	var inertia float64
	for lo := 0; lo < n; lo += par.Grain {
		var s float64
		for i := lo; i < min(lo+par.Grain, n); i++ {
			s += dist2[i]
		}
		inertia += s
	}
	res := &Result{K: k, Assignments: assign, Centers: centers, Sizes: sizes, Inertia: inertia}
	res.BIC = bic(data, res)
	return res
}

// refKMeans is KMeans over refSeedPlusPlus and refLloyd, restarts run
// serially.
func refKMeans(data *stats.Matrix, k int, opts Options) *Result {
	o := opts.withDefaults()
	o.Metrics.Add("kmeans.restarts", int64(o.Restarts))
	iters := o.Metrics.Counter("kmeans.lloyd_iters")
	var best *Result
	for r := 0; r < o.Restarts; r++ {
		rng := rand.New(rand.NewSource(par.DeriveSeed(o.Seed, uint64(r))))
		centers := stats.NewMatrix(k, data.Cols)
		refSeedPlusPlus(data, k, rng, centers, make([]float64, data.Rows))
		if res := refLloyd(data, centers, o.MaxIters, iters); best == nil || res.BIC > best.BIC {
			best = res
		}
	}
	return best
}

// refSelectK is SelectK over refKMeans.
func refSelectK(data *stats.Matrix, kmin, kmax int, frac float64, opts Options) *Result {
	kmax = min(kmax, data.Rows-1)
	kmax = max(kmax, kmin)
	var results []*Result
	lo, hi := math.Inf(1), math.Inf(-1)
	for k := kmin; k <= kmax; k++ {
		res := refKMeans(data, k, opts)
		results = append(results, res)
		lo, hi = min(lo, res.BIC), max(hi, res.BIC)
	}
	if hi <= lo {
		return results[0]
	}
	for _, res := range results {
		if res.BIC >= lo+frac*(hi-lo) {
			return res
		}
	}
	return results[len(results)-1]
}

// sameFit reports the first difference between two fits, comparing
// floats by their bits.
func sameFit(got, want *Result) error {
	if got.K != want.K {
		return fmt.Errorf("k %d, want %d", got.K, want.K)
	}
	for i := range want.Assignments {
		if got.Assignments[i] != want.Assignments[i] {
			return fmt.Errorf("row %d assigned %d, want %d", i, got.Assignments[i], want.Assignments[i])
		}
	}
	for c := range want.Sizes {
		if got.Sizes[c] != want.Sizes[c] {
			return fmt.Errorf("cluster %d size %d, want %d", c, got.Sizes[c], want.Sizes[c])
		}
	}
	for i, v := range want.Centers.Data {
		if math.Float64bits(got.Centers.Data[i]) != math.Float64bits(v) {
			return fmt.Errorf("center value %d is %v, want %v", i, got.Centers.Data[i], v)
		}
	}
	if math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia) {
		return fmt.Errorf("inertia %v, want %v", got.Inertia, want.Inertia)
	}
	if math.Float64bits(got.BIC) != math.Float64bits(want.BIC) {
		return fmt.Errorf("BIC %v, want %v", got.BIC, want.BIC)
	}
	return nil
}

// refCase is one data shape the pruned fit is pinned on.
type refCase struct {
	name string
	data *stats.Matrix
	ks   []int
}

func uniformData(rows, dims int, seed int64) *stats.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := stats.NewMatrix(rows, dims)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

// blobGrid places count blob centers on a deterministic pseudo-random
// layout in dims dimensions and draws per rows around each.
func blobGrid(count, per, dims int, spread float64, seed int64) *stats.Matrix {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, count)
	for c := range centers {
		centers[c] = make([]float64, dims)
		for j := range centers[c] {
			centers[c][j] = 20 * rng.Float64()
		}
	}
	m, _ := blobs(centers, per, spread, seed+1)
	return m
}

func referenceCases() []refCase {
	// Duplicates: 12 distinct points repeated, so k-means++ runs out of
	// D² mass (total 0) and draws uniformly, and k > 12 leaves clusters
	// empty.
	dup := stats.NewMatrix(240, 3)
	for i := 0; i < dup.Rows; i++ {
		p := (i * 7) % 12
		row := dup.Row(i)
		row[0], row[1], row[2] = float64(p%4), float64(p/4), float64(p%3)
	}
	return []refCase{
		{"blobs", blobGrid(40, 30, 9, 0.6, 3), []int{1, 20, 32, 33, 64, 100}},
		{"uniform", uniformData(600, 5, 4), []int{7, 31, 40, 97}},
		{"duplicates", dup, []int{5, 12, 40}},
		{"d1", uniformData(300, 1, 5), []int{3, 50}},
		{"d16", blobGrid(12, 25, 16, 1.5, 6), []int{12, 45}},
		{"rows-1", blobGrid(10, 7, 4, 0.3, 7), []int{69}},
	}
}

// TestKMeansMatchesReference pins the pruned fit to the unpruned one:
// identical assignments, sizes, center bits, inertia, BIC and Lloyd
// iteration count on every shape, for k on both sides of the one-group
// threshold (32), at several worker counts.
func TestKMeansMatchesReference(t *testing.T) {
	for _, tc := range referenceCases() {
		for _, k := range tc.ks {
			opts := Options{Seed: int64(k), Restarts: 2, MaxIters: 40}
			wantM := obs.New()
			ro := opts
			ro.Metrics = wantM
			want := refKMeans(tc.data, k, ro)
			for _, workers := range []int{1, 2, 7} {
				gotM := obs.New()
				o := opts
				o.Workers, o.Metrics = workers, gotM
				got, err := KMeans(tc.data, k, o)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameFit(got, want); err != nil {
					t.Fatalf("%s k=%d workers=%d: %v", tc.name, k, workers, err)
				}
				if g, w := gotM.Counter("kmeans.lloyd_iters").Value(), wantM.Counter("kmeans.lloyd_iters").Value(); g != w {
					t.Fatalf("%s k=%d workers=%d: %d Lloyd iterations, want %d", tc.name, k, workers, g, w)
				}
			}
		}
	}
}

// TestKMeansMatchesReferenceAcrossSeeds runs long fits on 1-D noise,
// where rows trade centers back and forth between groups: a row that
// leaves a center whose group it did not rescan must fold that center
// back into the group's bound, or a later pass misses it.
func TestKMeansMatchesReferenceAcrossSeeds(t *testing.T) {
	data := uniformData(300, 1, 4)
	for seed := int64(1); seed <= 12; seed++ {
		opts := Options{Seed: seed, Restarts: 1, MaxIters: 100}
		want := refKMeans(data, 40, opts)
		for _, workers := range []int{1, 3} {
			o := opts
			o.Workers = workers
			got, err := KMeans(data, 40, o)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameFit(got, want); err != nil {
				t.Fatalf("seed=%d workers=%d: %v", seed, workers, err)
			}
		}
	}
}

// lloydFrom runs the package's pruned Lloyd iteration from the given
// centers — the fit KMeans runs after seeding — so the reference tests
// can start both implementations from the same chosen centers.
func lloydFrom(data, initial *stats.Matrix, maxIters, workers int, m *obs.Metrics) *Result {
	dataNorm := make([]float64, data.Rows)
	kernel.RowSquaredNorms(data.Data, data.Rows, data.Cols, dataNorm)
	sc := getScratch(data.Rows, initial.Rows, data.Cols)
	copy(sc.centers.Data, initial.Data)
	res := lloydIterate(data, initial.Rows, maxIters, par.Workers(workers), newFitCounters(m), dataNorm, sc)
	res.BIC = bic(data, res)
	return res // aliases sc, which is never returned to the pool
}

// TestRefineMatchesReference pins the pruned Lloyd iteration on its own,
// started from perturbed centers of a finished fit rather than from
// k-means++ seeding.
func TestRefineMatchesReference(t *testing.T) {
	for _, tc := range referenceCases() {
		for _, k := range tc.ks {
			fit, err := KMeans(tc.data, k, Options{Seed: 9, Restarts: 1, MaxIters: 5})
			if err != nil {
				t.Fatal(err)
			}
			initial := fit.Centers.Clone()
			for i := range initial.Data {
				initial.Data[i] += 0.05 * float64(i%7-3)
			}
			wantIters := obs.New().Counter("kmeans.lloyd_iters")
			want := refLloyd(tc.data, initial.Clone(), 40, wantIters)
			for _, workers := range []int{1, 2, 7} {
				m := obs.New()
				got := lloydFrom(tc.data, initial, 40, workers, m)
				if err := sameFit(got, want); err != nil {
					t.Fatalf("%s k=%d workers=%d: %v", tc.name, k, workers, err)
				}
				if g, w := m.Counter("kmeans.lloyd_iters").Value(), wantIters.Value(); g != w {
					t.Fatalf("%s k=%d workers=%d: %d Lloyd iterations, want %d", tc.name, k, workers, g, w)
				}
			}
		}
	}
}

// TestSelectKMatchesReference pins the model sweep: the same pick, with
// the same bits, and the same total Lloyd iterations.
func TestSelectKMatchesReference(t *testing.T) {
	for _, tc := range referenceCases() {
		opts := Options{Seed: 4, Restarts: 2, MaxIters: 30}
		wantM := obs.New()
		ro := opts
		ro.Metrics = wantM
		want := refSelectK(tc.data, 1, 12, 0.9, ro)
		for _, workers := range []int{1, 2, 7} {
			gotM := obs.New()
			o := opts
			o.Workers, o.Metrics = workers, gotM
			got, err := SelectK(tc.data, 1, 12, 0.9, o)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameFit(got, want); err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			if g, w := gotM.Counter("kmeans.lloyd_iters").Value(), wantM.Counter("kmeans.lloyd_iters").Value(); g != w {
				t.Fatalf("%s workers=%d: %d Lloyd iterations, want %d", tc.name, workers, g, w)
			}
		}
	}
}

// TestTiesBreakToLowestCenter puts every center of a grouped fit at the
// same point: each row ties across all groups, and a full scan gives it
// to center 0 — so must the grouped scan, pass after pass.
func TestTiesBreakToLowestCenter(t *testing.T) {
	const k = 70 // three groups
	data := uniformData(200, 3, 8)
	initial := stats.NewMatrix(k, 3)
	for c := 0; c < k; c++ {
		copy(initial.Row(c), []float64{0.5, 0.5, 0.5})
	}
	want := refLloyd(data, initial.Clone(), 10, nil)
	if err := sameFit(lloydFrom(data, initial, 10, 3, nil), want); err != nil {
		t.Fatal(err)
	}
}
