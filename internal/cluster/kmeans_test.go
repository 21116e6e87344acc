package cluster

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/stats"
)

// blobs generates n points around each of the given centers.
func blobs(centers [][]float64, n int, spread float64, seed int64) (*stats.Matrix, []int) {
	rng := rand.New(rand.NewSource(seed))
	dim := len(centers[0])
	m := stats.NewMatrix(n*len(centers), dim)
	truth := make([]int, m.Rows)
	for c, center := range centers {
		for i := 0; i < n; i++ {
			row := m.Row(c*n + i)
			for j := 0; j < dim; j++ {
				row[j] = center[j] + spread*rng.NormFloat64()
			}
			truth[c*n+i] = c
		}
	}
	return m, truth
}

func TestKMeansRecoversBlobs(t *testing.T) {
	centers := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	data, truth := blobs(centers, 50, 0.5, 1)
	res, err := KMeans(data, 3, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Every true blob must map to exactly one cluster.
	mapping := map[int]map[int]int{}
	for i, c := range res.Assignments {
		if mapping[truth[i]] == nil {
			mapping[truth[i]] = map[int]int{}
		}
		mapping[truth[i]][c]++
	}
	used := map[int]bool{}
	for blob, counts := range mapping {
		best, bestN := -1, 0
		total := 0
		for c, n := range counts {
			total += n
			if n > bestN {
				best, bestN = c, n
			}
		}
		if float64(bestN)/float64(total) < 0.98 {
			t.Fatalf("blob %d split across clusters: %v", blob, counts)
		}
		if used[best] {
			t.Fatalf("two blobs mapped to cluster %d", best)
		}
		used[best] = true
	}
}

func TestKMeansValidation(t *testing.T) {
	data := stats.NewMatrix(5, 2)
	if _, err := KMeans(data, 0, Options{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := KMeans(data, 6, Options{}); err == nil {
		t.Fatal("k > rows accepted")
	}
}

func TestKMeansDeterministicWithSeed(t *testing.T) {
	data, _ := blobs([][]float64{{0, 0}, {5, 5}}, 40, 1, 2)
	a, err := KMeans(data, 2, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(data, 2, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatal("same seed produced different clusterings")
		}
	}
	if a.BIC != b.BIC || a.Inertia != b.Inertia {
		t.Fatal("same seed produced different scores")
	}
}

// TestKMeansWorkerCountInvariance is the tentpole contract: the fitted
// clustering must be byte-identical whatever Options.Workers is, because
// restart seeds are derived by hashing and all floating-point reductions
// run in a fixed chunk order. k = 4 fits in one bound group; k = 90 runs
// the grouped (three-bound) pruned passes.
func TestKMeansWorkerCountInvariance(t *testing.T) {
	four, _ := blobs([][]float64{{0, 0}, {7, 1}, {2, 9}, {8, 8}}, 60, 0.8, 21)
	for _, tc := range []struct {
		data *stats.Matrix
		k    int
	}{
		{four, 4},
		{blobGrid(30, 20, 6, 0.8, 24), 90},
	} {
		ref, err := KMeans(tc.data, tc.k, Options{Seed: 5, Restarts: 4, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			got, err := KMeans(tc.data, tc.k, Options{Seed: 5, Restarts: 4, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got.BIC != ref.BIC || got.Inertia != ref.Inertia {
				t.Fatalf("k=%d workers=%d scores differ: BIC %v vs %v, inertia %v vs %v",
					tc.k, workers, got.BIC, ref.BIC, got.Inertia, ref.Inertia)
			}
			for i := range ref.Assignments {
				if got.Assignments[i] != ref.Assignments[i] {
					t.Fatalf("k=%d workers=%d assignment %d differs", tc.k, workers, i)
				}
			}
			for i := range ref.Centers.Data {
				if got.Centers.Data[i] != ref.Centers.Data[i] {
					t.Fatalf("k=%d workers=%d center element %d differs", tc.k, workers, i)
				}
			}
		}
	}
}

// TestPruningCountersWorkerInvariant pins the pruning counters: summed
// per chunk and per restart, they must not depend on the worker count,
// and on clustered data both halves of the fit must skip most of the
// unpruned work — a silent fall back to full scans fails here.
func TestPruningCountersWorkerInvariant(t *testing.T) {
	data := blobGrid(40, 30, 9, 0.6, 25)
	const k, restarts = 100, 3
	var ref map[string]int64
	for _, workers := range []int{1, 2, 7} {
		m := obs.New()
		if _, err := KMeans(data, k, Options{Seed: 2, Restarts: restarts, Workers: workers, Metrics: m}); err != nil {
			t.Fatal(err)
		}
		got := map[string]int64{}
		for _, name := range []string{"kmeans.lloyd_iters", "kmeans.center_evals", "kmeans.seed_evals"} {
			got[name] = m.Counter(name).Value()
		}
		if ref == nil {
			ref = got
			continue
		}
		for name, v := range got {
			if v != ref[name] {
				t.Fatalf("workers=%d: %s = %d, want %d (workers=1)", workers, name, v, ref[name])
			}
		}
	}
	rows := int64(data.Rows)
	if full := (ref["kmeans.lloyd_iters"] + restarts) * rows * k; ref["kmeans.center_evals"]*2 > full {
		t.Fatalf("kmeans.center_evals = %d, over half the unpruned %d", ref["kmeans.center_evals"], full)
	}
	if full := restarts * rows * k; ref["kmeans.seed_evals"]*2 > full {
		t.Fatalf("kmeans.seed_evals = %d, over half the unpruned %d", ref["kmeans.seed_evals"], full)
	}
}

func TestSelectKWorkerCountInvariance(t *testing.T) {
	data, _ := blobs([][]float64{{0, 0}, {15, 0}, {0, 15}}, 30, 0.5, 22)
	ref, err := SelectK(data, 1, 8, 0.9, Options{Seed: 3, Restarts: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := SelectK(data, 1, 8, 0.9, Options{Seed: 3, Restarts: 2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.K != ref.K || got.BIC != ref.BIC {
			t.Fatalf("workers=%d picked k=%d (BIC %v), workers=1 picked k=%d (BIC %v)",
				workers, got.K, got.BIC, ref.K, ref.BIC)
		}
		for i := range ref.Assignments {
			if got.Assignments[i] != ref.Assignments[i] {
				t.Fatalf("workers=%d assignment %d differs", workers, i)
			}
		}
	}
}

// TestKMeansSeedZeroValid pins the Seed == 0 semantics: 0 is an ordinary
// seed (deterministic, distinct from seed 1), not an "unseeded" sentinel.
func TestKMeansSeedZeroValid(t *testing.T) {
	// One diffuse blob: distinct seeds land in distinct local optima.
	data, _ := blobs([][]float64{{0, 0}}, 200, 5.0, 23)
	a, err := KMeans(data, 6, Options{Seed: 0, Restarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(data, 6, Options{Seed: 0, Restarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.BIC != b.BIC || a.Inertia != b.Inertia {
		t.Fatal("seed 0 not deterministic")
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatal("seed 0 not deterministic")
		}
	}
	// Seed 0 must drive a different restart stream than seed 1 (it would
	// not if 0 were collapsed into another value somewhere).
	c, err := KMeans(data, 6, Options{Seed: 1, Restarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	same := a.Inertia == c.Inertia && a.BIC == c.BIC
	for i := range a.Assignments {
		if a.Assignments[i] != c.Assignments[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed 0 and seed 1 produced identical clusterings; 0 looks like a sentinel")
	}
}

func TestWeightsSumToOne(t *testing.T) {
	data, _ := blobs([][]float64{{0}, {4}, {9}}, 30, 0.3, 3)
	res, err := KMeans(data, 3, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, w := range res.Weights() {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", sum)
	}
	var sizes int
	for _, s := range res.Sizes {
		sizes += s
	}
	if sizes != data.Rows {
		t.Fatalf("sizes sum to %d, want %d", sizes, data.Rows)
	}
}

func TestRepresentativesAreClosest(t *testing.T) {
	data, _ := blobs([][]float64{{0, 0}, {8, 8}}, 25, 0.7, 4)
	res, err := KMeans(data, 2, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	reps := res.Representatives(data)
	for c, rep := range reps {
		if rep < 0 || rep >= data.Rows {
			t.Fatalf("representative %d out of range", rep)
		}
		if res.Assignments[rep] != c {
			t.Fatalf("representative of cluster %d belongs to cluster %d", c, res.Assignments[rep])
		}
		repDist := stats.EuclideanDistance(data.Row(rep), res.Centers.Row(c))
		for i := 0; i < data.Rows; i++ {
			if res.Assignments[i] != c {
				continue
			}
			if d := stats.EuclideanDistance(data.Row(i), res.Centers.Row(c)); d < repDist-1e-9 {
				t.Fatalf("row %d closer to center %d than representative", i, c)
			}
		}
	}
}

func TestByWeightSorted(t *testing.T) {
	data, _ := blobs([][]float64{{0}, {5}}, 20, 0.2, 5)
	// Unbalanced: add extra points to blob 0.
	extra, _ := blobs([][]float64{{0}}, 30, 0.2, 6)
	all := stats.NewMatrix(data.Rows+extra.Rows, 1)
	copy(all.Data, data.Data)
	copy(all.Data[data.Rows:], extra.Data)
	res, err := KMeans(all, 2, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	order := res.ByWeight()
	if res.Sizes[order[0]] < res.Sizes[order[1]] {
		t.Fatal("ByWeight not sorted descending")
	}
}

func TestBICPrefersTrueK(t *testing.T) {
	data, _ := blobs([][]float64{{0, 0}, {12, 0}, {0, 12}, {12, 12}}, 40, 0.4, 7)
	bic := func(k int) float64 {
		res, err := KMeans(data, k, Options{Seed: 1, Restarts: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res.BIC
	}
	b1, b4, b12 := bic(1), bic(4), bic(12)
	if b4 <= b1 {
		t.Fatalf("BIC(k=4)=%v not better than BIC(k=1)=%v on 4 blobs", b4, b1)
	}
	if b4 <= b12 {
		t.Fatalf("BIC(k=4)=%v not better than BIC(k=12)=%v on 4 blobs", b4, b12)
	}
}

func TestAvgWithinClusterDistanceShrinksWithK(t *testing.T) {
	data, _ := blobs([][]float64{{0, 0}, {6, 6}}, 60, 1.5, 8)
	r2, err := KMeans(data, 2, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r12, err := KMeans(data, 12, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r12.AvgWithinClusterDistance(data) >= r2.AvgWithinClusterDistance(data) {
		t.Fatal("within-cluster distance did not shrink with larger k")
	}
}

func TestKMeansHandlesDuplicatePoints(t *testing.T) {
	// Many identical rows (the sampling-with-replacement case) must not
	// break clustering or produce NaNs.
	m := stats.NewMatrix(40, 2)
	for i := 0; i < 40; i++ {
		if i >= 20 {
			m.Set(i, 0, 5)
			m.Set(i, 1, 5)
		}
	}
	res, err := KMeans(m, 2, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.BIC) || math.IsInf(res.Inertia, 0) {
		t.Fatalf("degenerate scores: BIC=%v inertia=%v", res.BIC, res.Inertia)
	}
	if res.Inertia > 1e-9 {
		t.Fatalf("two point-masses should cluster exactly; inertia=%v", res.Inertia)
	}
}

func TestKMeansSingleCluster(t *testing.T) {
	data, _ := blobs([][]float64{{3, 3}}, 30, 0.5, 9)
	res, err := KMeans(data, 1, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sizes[0] != 30 {
		t.Fatalf("k=1 cluster size %d", res.Sizes[0])
	}
	center := res.Centers.Row(0)
	if math.Abs(center[0]-3) > 0.3 || math.Abs(center[1]-3) > 0.3 {
		t.Fatalf("k=1 center = %v", center)
	}
}

func TestSelectKPrefersCompactModels(t *testing.T) {
	// Two crisp blobs: the SimPoint heuristic must pick k=2, not the
	// maximum k (raw BIC maximization often overfits small samples).
	data, _ := blobs([][]float64{{0, 0}, {20, 20}}, 30, 0.4, 11)
	res, err := SelectK(data, 1, 8, 0.9, Options{Seed: 1, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 2 || res.K > 3 {
		t.Fatalf("SelectK picked k=%d on two blobs", res.K)
	}
}

func TestSelectKSingleBlob(t *testing.T) {
	data, _ := blobs([][]float64{{5, 5}}, 40, 0.5, 12)
	res, err := SelectK(data, 1, 6, 0.9, Options{Seed: 1, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.K > 2 {
		t.Fatalf("SelectK split a homogeneous blob into %d clusters", res.K)
	}
}

func TestSelectKValidation(t *testing.T) {
	data, _ := blobs([][]float64{{0}}, 10, 0.1, 13)
	if _, err := SelectK(data, 0, 3, 0.9, Options{}); err == nil {
		t.Fatal("kmin=0 accepted")
	}
	if _, err := SelectK(data, 3, 2, 0.9, Options{}); err == nil {
		t.Fatal("kmax<kmin accepted")
	}
	if _, err := SelectK(data, 1, 3, 1.5, Options{}); err == nil {
		t.Fatal("fraction out of range accepted")
	}
	// kmax beyond rows-1 must be clamped, not rejected.
	res, err := SelectK(data, 1, 50, 0.9, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.K >= data.Rows {
		t.Fatalf("SelectK returned k=%d for %d rows", res.K, data.Rows)
	}
}

// TestByWeightTieBreak builds a clustering with one dominant cluster and
// many exactly equal-size ones. sort.Slice is unstable, so without the
// explicit index tie-break the tied clusters could order arbitrarily; the
// contract is descending size, then ascending cluster index.
func TestByWeightTieBreak(t *testing.T) {
	const k = 16
	sizes := make([]int, k)
	for c := range sizes {
		sizes[c] = 5
	}
	sizes[9] = 50
	r := &Result{K: k, Sizes: sizes}
	order := r.ByWeight()
	if order[0] != 9 {
		t.Fatalf("heaviest cluster = %d, want 9", order[0])
	}
	next := 0
	for _, c := range order[1:] {
		if c == 9 {
			t.Fatal("cluster 9 listed twice")
		}
		if c < next {
			t.Fatalf("tied clusters out of index order: %v", order)
		}
		next = c
	}
}
