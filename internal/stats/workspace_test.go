package stats

import (
	"math"
	"math/rand"
	"testing"
)

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// samePCA reports the first field in which two PCAs differ bit for bit
// ("" when none does).
func samePCA(got, want *PCA) string {
	switch {
	case got.Components.Rows != want.Components.Rows || got.Components.Cols != want.Components.Cols ||
		!sameBits(got.Components.Data, want.Components.Data):
		return "Components"
	case !sameBits(got.Variances, want.Variances):
		return "Variances"
	case !sameBits(got.InputStats.Mean, want.InputStats.Mean):
		return "InputStats.Mean"
	case !sameBits(got.InputStats.Std, want.InputStats.Std):
		return "InputStats.Std"
	case math.Float64bits(got.TotalVariance) != math.Float64bits(want.TotalVariance):
		return "TotalVariance"
	}
	return ""
}

// subsetMatrices returns data sets whose subset PCAs stress the
// gathered statistics: correlated columns, a constant column, duplicate
// rows, the 3-row minimum and columns scaled by 1e-9 and 1e9.
func subsetMatrices() []namedMatrix {
	rng := rand.New(rand.NewSource(21))
	base := NewMatrix(40, 11)
	for i := 0; i < base.Rows; i++ {
		f, g := rng.NormFloat64(), rng.NormFloat64()
		row := base.Row(i)
		for j := range row {
			row[j] = float64(j%3+1)*f + float64(j%2)*g + 0.3*rng.NormFloat64()
		}
	}
	constant := base.Clone()
	for i := 0; i < constant.Rows; i++ {
		constant.Set(i, 4, 2.5)
	}
	dup := base.Clone()
	for i := 20; i < dup.Rows; i++ {
		copy(dup.Row(i), dup.Row(i-20))
	}
	three := NewMatrix(3, base.Cols)
	copy(three.Data, base.Data)
	scaled := base.Clone()
	for i := 0; i < scaled.Rows; i++ {
		scaled.Set(i, 2, scaled.At(i, 2)*1e-9)
		scaled.Set(i, 7, scaled.At(i, 7)*1e9)
	}
	return []namedMatrix{{"correlated", base}, {"constant", constant}, {"duplicates", dup}, {"three-rows", three}, {"scaled", scaled}}
}

type namedMatrix struct {
	name string
	m    *Matrix
}

// subsetGenomes returns column subsets of a p-column matrix: sorted,
// unsorted, with repeats, one column, and all of them.
func subsetGenomes(p int, rng *rand.Rand) [][]int {
	all := make([]int, p)
	for i := range all {
		all[i] = i
	}
	out := [][]int{all, {0}, {p - 1}, {3, 3}, {2, 7}, {7, 2}, {4, 1, 4, 9}}
	for len(out) < 60 {
		n := 1 + rng.Intn(p)
		g := rng.Perm(p)[:n]
		if rng.Intn(4) == 0 {
			g = append(g, g[rng.Intn(n)])
		}
		out = append(out, g)
	}
	return out
}

// TestSubsetPCAMatchesSelectedComputePCA pins SubsetPCA and
// SubsetRescaledScores to the chain they replace — SelectColumns, then
// ComputePCA and RescaledScores on the selection — bit for bit, for
// every retained-component count, on one workspace reused across shapes.
func TestSubsetPCAMatchesSelectedComputePCA(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var ws PCAWorkspace
	for _, nm := range subsetMatrices() {
		name, m := nm.name, nm.m
		std := Standardize(m)
		for _, cols := range subsetGenomes(m.Cols, rng) {
			sel, err := m.SelectColumns(cols)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ComputePCA(sel, true)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ws.SubsetPCA(std, cols)
			if err != nil {
				t.Fatalf("%s %v: %v", name, cols, err)
			}
			if field := samePCA(got, want); field != "" {
				t.Fatalf("%s %v: subset PCA %s differs from ComputePCA on the selection", name, cols, field)
			}
			for k := 1; k <= len(cols); k++ {
				wantScores, err := want.RescaledScores(sel, k)
				if err != nil {
					t.Fatal(err)
				}
				gotScores, err := ws.SubsetRescaledScores(std, cols, got, k)
				if err != nil {
					t.Fatal(err)
				}
				if gotScores.Rows != wantScores.Rows || gotScores.Cols != k || !sameBits(gotScores.Data, wantScores.Data) {
					t.Fatalf("%s %v k=%d: rescaled scores differ", name, cols, k)
				}
			}
		}
	}
}

func TestSubsetPCAValidation(t *testing.T) {
	var ws PCAWorkspace
	std := Standardize(correlatedData(10, 1))
	for _, cols := range [][]int{{}, {3}, {-1}, {0, 3}} {
		if _, err := ws.SubsetPCA(std, cols); err == nil {
			t.Fatalf("SubsetPCA accepted columns %v of 3", cols)
		}
	}
	if _, err := ws.SubsetPCA(Standardize(correlatedData(1, 1)), []int{0}); err == nil {
		t.Fatal("SubsetPCA accepted a one-row matrix")
	}
	p, err := ws.SubsetPCA(std, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cols []int
		k    int
	}{{[]int{0, 2}, 0}, {[]int{0, 2}, 3}, {[]int{0}, 1}, {[]int{0, 5}, 1}} {
		if _, err := ws.SubsetRescaledScores(std, c.cols, p, c.k); err == nil {
			t.Fatalf("SubsetRescaledScores accepted columns %v, k=%d", c.cols, c.k)
		}
	}
}

// TestWorkspaceComputePCAMatchesComputePCA checks the workspace
// contract the package doc states: one workspace reused across shapes,
// growing and shrinking, returns ComputePCA's bits every time.
func TestWorkspaceComputePCAMatchesComputePCA(t *testing.T) {
	var ws PCAWorkspace
	rng := rand.New(rand.NewSource(23))
	adversarial := subsetMatrices()
	for _, m := range []*Matrix{correlatedData(200, 2), adversarial[4].m, correlatedData(5, 3), adversarial[1].m} {
		for _, normalize := range []bool{true, false} {
			want, err := ComputePCA(m, normalize)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ws.ComputePCA(m, normalize)
			if err != nil {
				t.Fatal(err)
			}
			if field := samePCA(got, want); field != "" {
				t.Fatalf("%dx%d normalize=%v: workspace PCA %s differs", m.Rows, m.Cols, normalize, field)
			}
			// Dirty the workspace's buffers between calls.
			for i := range ws.cov.Data {
				ws.cov.Data[i] = rng.NormFloat64()
			}
		}
	}
}
