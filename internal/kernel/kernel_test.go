package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// naiveDot is the serial reference; the blocked kernels must agree with
// it to within round-off reordering (a few ULPs on well-conditioned
// data).
func naiveDot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func naiveSquaredDistance(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func relClose(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-9*math.Max(1, scale)
}

// Every length from 0 through a few multiples of the 4-wide block, so
// both the main loop and every tail shape are exercised.
func TestKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 67; n++ {
		a, b := randVec(rng, n), randVec(rng, n)
		if got, want := Dot(a, b), naiveDot(a, b); !relClose(got, want) {
			t.Fatalf("Dot len %d: got %v, want %v", n, got, want)
		}
		if got, want := SquaredNorm(a), naiveDot(a, a); !relClose(got, want) {
			t.Fatalf("SquaredNorm len %d: got %v, want %v", n, got, want)
		}
		if got, want := SquaredDistance(a, b), naiveSquaredDistance(a, b); !relClose(got, want) {
			t.Fatalf("SquaredDistance len %d: got %v, want %v", n, got, want)
		}
		if got, want := Distance(a, b), math.Sqrt(naiveSquaredDistance(a, b)); !relClose(got, want) {
			t.Fatalf("Distance len %d: got %v, want %v", n, got, want)
		}
	}
}

// Exactly-representable inputs where every summation order gives the
// same float: the classic 3-4-5 triangle.
func TestDistanceExact(t *testing.T) {
	if got := Distance([]float64{0, 0}, []float64{3, 4}); got != 5 {
		t.Fatalf("Distance((0,0),(3,4)) = %v, want 5", got)
	}
	if got := SquaredDistance([]float64{1, 2, 3, 4, 5}, []float64{1, 2, 3, 4, 5}); got != 0 {
		t.Fatalf("SquaredDistance(x,x) = %v, want 0", got)
	}
}

func TestKernelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := randVec(rng, 69), randVec(rng, 69)
	first := Dot(a, b)
	for i := 0; i < 10; i++ {
		if got := Dot(a, b); got != first {
			t.Fatalf("Dot not deterministic: %v then %v", first, got)
		}
	}
}

func TestAxpyAddMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 19; n++ {
		x := randVec(rng, n)
		y := randVec(rng, n)
		want := make([]float64, n)
		copy(want, y)
		for i := range want {
			want[i] += 2.5 * x[i]
		}
		got := make([]float64, n)
		copy(got, y)
		Axpy(2.5, x, got)
		for i := range want {
			// Elementwise update: must be bit-identical to scalar.
			if got[i] != want[i] {
				t.Fatalf("Axpy len %d slot %d: got %v, want %v", n, i, got[i], want[i])
			}
		}
		sum := make([]float64, n)
		copy(sum, y)
		Add(sum, x)
		for i := range sum {
			if want := y[i] + x[i]; sum[i] != want {
				t.Fatalf("Add len %d slot %d: got %v, want %v", n, i, sum[i], want)
			}
		}
	}
}

func TestRowSquaredNorms(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows, cols := 7, 13
	data := randVec(rng, rows*cols)
	out := make([]float64, rows)
	RowSquaredNorms(data, rows, cols, out)
	for i := 0; i < rows; i++ {
		if want := SquaredNorm(data[i*cols : (i+1)*cols]); out[i] != want {
			t.Fatalf("row %d norm: got %v, want %v", i, out[i], want)
		}
	}
}

func TestKernelPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"dot":  func() { Dot([]float64{1}, []float64{1, 2}) },
		"sqd":  func() { SquaredDistance([]float64{1}, []float64{1, 2}) },
		"axpy": func() { Axpy(1, []float64{1}, []float64{1, 2}) },
		"add":  func() { Add([]float64{1}, []float64{1, 2}) },
		"ser":  func() { DotSerial([]float64{1}, []float64{1, 2}) },
		"min2": func() { Min2G([]float64{1, 2}, []float64{1}) },
		"cols": func() { DotColsRange([]float64{1, 2}, make([]float64, 7), 4, 2, 5, make([]float64, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic on length mismatch", name)
				}
			}()
			f()
		}()
	}
}

func TestFloatBlockRoundTrip(t *testing.T) {
	xs := []float64{0, 1.5, -2.25, math.Inf(1), math.Copysign(0, -1), math.NaN(), 1e-308}
	buf := AppendFloats(nil, xs)
	if len(buf) != 8*len(xs) {
		t.Fatalf("encoded %d bytes, want %d", len(buf), 8*len(xs))
	}
	dst := make([]float64, len(xs))
	CopyFloats(dst, buf)
	for i := range xs {
		if math.Float64bits(dst[i]) != math.Float64bits(xs[i]) {
			t.Fatalf("slot %d: bits %x, want %x", i, math.Float64bits(dst[i]), math.Float64bits(xs[i]))
		}
	}
	if alias, ok := AliasFloats(buf, len(xs)); ok {
		for i := range xs {
			if math.Float64bits(alias[i]) != math.Float64bits(xs[i]) {
				t.Fatalf("alias slot %d: bits %x, want %x", i, math.Float64bits(alias[i]), math.Float64bits(xs[i]))
			}
		}
	}
}

// A deliberately misaligned view must refuse the zero-copy path and
// still decode correctly through CopyFloats.
func TestAliasFloatsMisaligned(t *testing.T) {
	xs := []float64{1, 2, 3}
	backing := make([]byte, 8*len(xs)+1)
	copy(backing[1:], AppendFloats(nil, xs))
	views := 0
	for off := 0; off < 2; off++ {
		view := backing[off+0:]
		if _, ok := AliasFloats(view, len(xs)); !ok {
			views++
			dst := make([]float64, len(xs))
			CopyFloats(dst, view)
			// Only the off=1 view holds the real encoding.
			if off == 1 && dst[2] != 3 {
				t.Fatalf("misaligned copy decode got %v", dst)
			}
		}
	}
	if views == 0 {
		t.Skip("both offsets aligned on this platform")
	}
}

func TestAliasFloatsBounds(t *testing.T) {
	if _, ok := AliasFloats(make([]byte, 15), 2); ok {
		t.Fatal("aliased a truncated block")
	}
	if got, ok := AliasFloats(nil, 0); !ok || len(got) != 0 {
		t.Fatal("empty block must alias trivially")
	}
}

func BenchmarkDot(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := randVec(rng, 69), randVec(rng, 69)
	b.ReportAllocs()
	var s float64
	for i := 0; i < b.N; i++ {
		s += Dot(x, y)
	}
	_ = s
}
