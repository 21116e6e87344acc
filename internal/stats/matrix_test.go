package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("matrix shape wrong: %+v", m)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("new matrix not zeroed")
		}
	}
}

func TestNewMatrixPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative dimension accepted")
		}
	}()
	NewMatrix(-1, 2)
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 || m.At(0, 1) != 2 {
		t.Fatal("FromRows layout wrong")
	}
	if _, err := FromRows(nil); err == nil {
		t.Fatal("empty rows accepted")
	}
	if _, err := FromRows([][]float64{{1}, {1, 2}}); err == nil {
		t.Fatal("ragged rows accepted")
	}
}

func TestSetAtRow(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 9)
	if m.At(1, 2) != 9 {
		t.Fatal("Set/At mismatch")
	}
	row := m.Row(1)
	row[0] = 5
	if m.At(1, 0) != 5 {
		t.Fatal("Row must be a mutable view")
	}
}

func TestClone(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestSelectColumns(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	s, err := m.SelectColumns([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if s.At(0, 0) != 3 || s.At(0, 1) != 1 || s.At(1, 0) != 6 {
		t.Fatalf("SelectColumns wrong: %+v", s.Data)
	}
	if _, err := m.SelectColumns([]int{3}); err == nil {
		t.Fatal("out-of-range column accepted")
	}
	if _, err := m.SelectColumns([]int{-1}); err == nil {
		t.Fatal("negative column accepted")
	}
}

func TestColumnMeansStds(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 10}, {3, 10}})
	cs := m.ColumnMeansStds()
	if cs.Mean[0] != 2 || cs.Mean[1] != 10 {
		t.Fatalf("means = %v", cs.Mean)
	}
	if cs.Std[0] != 1 || cs.Std[1] != 0 {
		t.Fatalf("stds = %v", cs.Std)
	}
}

func TestNormalize(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 5}, {3, 5}, {5, 5}})
	n, cs := m.Normalize()
	nn := n.ColumnMeansStds()
	if !almostEq(nn.Mean[0], 0, 1e-12) || !almostEq(nn.Std[0], 1, 1e-12) {
		t.Fatalf("normalized column stats = %v/%v", nn.Mean[0], nn.Std[0])
	}
	// Constant column: centered, not scaled.
	if n.At(0, 1) != 0 || n.At(2, 1) != 0 {
		t.Fatal("constant column not centered")
	}
	if cs.Mean[1] != 5 {
		t.Fatal("returned stats wrong")
	}
}

func TestCovarianceKnown(t *testing.T) {
	// Perfectly correlated columns y = 2x with x in {-1, 0, 1}.
	m, _ := FromRows([][]float64{{-1, -2}, {0, 0}, {1, 2}})
	cov := m.Covariance()
	wantXX := 2.0 / 3
	if !almostEq(cov.At(0, 0), wantXX, 1e-12) {
		t.Fatalf("var(x) = %v, want %v", cov.At(0, 0), wantXX)
	}
	if !almostEq(cov.At(0, 1), 2*wantXX, 1e-12) || !almostEq(cov.At(1, 0), 2*wantXX, 1e-12) {
		t.Fatalf("cov(x,y) = %v, want %v", cov.At(0, 1), 2*wantXX)
	}
	if !almostEq(cov.At(1, 1), 4*wantXX, 1e-12) {
		t.Fatalf("var(y) = %v", cov.At(1, 1))
	}
}

func TestEuclideanDistance(t *testing.T) {
	if got := EuclideanDistance([]float64{0, 0}, []float64{3, 4}); got != 5 {
		t.Fatalf("distance = %v, want 5", got)
	}
}

func TestEuclideanDistancePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch accepted")
		}
	}()
	EuclideanDistance([]float64{1}, []float64{1, 2})
}

// TestPairwiseDistancesMatchEuclidean pins the fused pair loop to the
// distance kernel: every pair is bit for bit EuclideanDistance of its
// rows, for widths that exercise the four-lane body and every tail
// length, and the returned sum is the pair-order sum Pearson would form.
// A stale, longer dst must be reused and fully overwritten.
func TestPairwiseDistancesMatchEuclidean(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dst := make([]float64, 5000)
	for i := range dst {
		dst[i] = math.NaN()
	}
	for _, rows := range []int{0, 1, 2, 3, 57} {
		for cols := 0; cols <= 9; cols++ {
			m := NewMatrix(rows, cols)
			for i := range m.Data {
				m.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
			var got []float64
			var sum float64
			got, sum = PairwiseDistancesInto(dst, m)
			if len(got) != rows*(rows-1)/2 {
				t.Fatalf("%dx%d: %d pairs", rows, cols, len(got))
			}
			var want float64
			k := 0
			for i := 0; i < rows; i++ {
				for j := i + 1; j < rows; j++ {
					d := EuclideanDistance(m.Row(i), m.Row(j))
					if math.Float64bits(got[k]) != math.Float64bits(d) {
						t.Fatalf("%dx%d pair (%d,%d) = %v, EuclideanDistance %v", rows, cols, i, j, got[k], d)
					}
					want += d
					k++
				}
			}
			if math.Float64bits(sum) != math.Float64bits(want) {
				t.Fatalf("%dx%d: sum %v, pair-order sum %v", rows, cols, sum, want)
			}
			if plain := PairwiseDistances(m); len(plain) != len(got) || (len(plain) > 0 && plain[len(plain)-1] != got[len(got)-1]) {
				t.Fatalf("%dx%d: PairwiseDistances disagrees with PairwiseDistancesInto", rows, cols)
			}
		}
	}
}

func TestPairwiseDistances(t *testing.T) {
	m, _ := FromRows([][]float64{{0}, {1}, {3}})
	d := PairwiseDistances(m)
	want := []float64{1, 3, 2} // (0,1) (0,2) (1,2)
	if len(d) != 3 {
		t.Fatalf("got %d distances", len(d))
	}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("distances = %v, want %v", d, want)
		}
	}
}

func TestPearsonKnown(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if got := Pearson(x, []float64{2, 4, 6, 8}); !almostEq(got, 1, 1e-12) {
		t.Fatalf("perfect correlation = %v", got)
	}
	if got := Pearson(x, []float64{8, 6, 4, 2}); !almostEq(got, -1, 1e-12) {
		t.Fatalf("perfect anticorrelation = %v", got)
	}
	if got := Pearson(x, []float64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("constant sample correlation = %v", got)
	}
}

func TestPearsonBounds(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) < 4 {
			return true
		}
		n := len(xs) / 2
		x, y := xs[:n], xs[n:2*n]
		for _, v := range xs {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		r := Pearson(x, y)
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("mean = %v", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Fatalf("stddev = %v", got)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Fatal("empty-slice stats should be 0")
	}
}
