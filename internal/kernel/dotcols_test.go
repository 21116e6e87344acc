package kernel

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The active dotCols path (assembly where available) must be
// bit-identical to the generic serial-order reference for every (d, k)
// shape: main blocks, 4-wide blocks, scalar tails and empty inputs.
func TestDotColsBitIdenticalToGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, d := range []int{0, 1, 2, 5, 15, 16, 69} {
		for _, k := range []int{1, 2, 3, 4, 5, 15, 16, 17, 31, 32, 33, 300} {
			x := randVec(rng, d)
			ct := randVec(rng, d*k)
			got := make([]float64, k)
			want := make([]float64, k)
			DotCols(x, ct, got, k)
			dotColsGeneric(x, ct, want, k, k)
			for c := range want {
				if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
					t.Fatalf("d=%d k=%d col %d: %x vs %x", d, k, c, got[c], want[c])
				}
			}
		}
	}
}

// DotCols must agree with per-column Dot products up to round-off (it
// sums serially, Dot in 4-wide lanes) and exactly with a serial sum.
func TestDotColsMatchesColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	d, k := 15, 37
	x := randVec(rng, d)
	ct := randVec(rng, d*k)
	out := make([]float64, k)
	DotCols(x, ct, out, k)
	for c := 0; c < k; c++ {
		var want float64
		for j := 0; j < d; j++ {
			want += x[j] * ct[j*k+c]
		}
		if out[c] != want {
			t.Fatalf("col %d: got %v, want serial %v", c, out[c], want)
		}
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	rows, cols := 11, 7
	data := randVec(rng, rows*cols)
	ct := make([]float64, rows*cols)
	Transpose(data, rows, cols, ct)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if ct[j*rows+i] != data[i*cols+j] {
				t.Fatalf("(%d,%d) mismatch", i, j)
			}
		}
	}
}

// serialCol is the scalar reference for one column of a strided
// transposed block: the ascending-j sum of unfused products that every
// DotColsRange path must reproduce bit for bit.
func serialCol(x, ct []float64, stride, c int) float64 {
	var s float64
	for j, xj := range x {
		s += float64(xj * ct[j*stride+c])
	}
	return s
}

// DotColsRange over any sub-range of a wider block — group-sized
// ranges, single columns, 4-aligned and ragged widths — must match the
// scalar column loop bit for bit and leave every slot outside the range
// untouched, and DotSerial over a column's values must match it too: the
// pruned k-means scans a padded block one group at a time, re-evaluates
// single centers from their rows, and relies on all three agreeing.
func TestDotColsRangeMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sentinel := math.Float64frombits(0x7ff8dead0000beef)
	for _, d := range []int{0, 1, 3, 9, 15} {
		for _, stride := range []int{1, 4, 7, 32, 36, 320} {
			x := randVec(rng, d)
			ct := randVec(rng, d*stride)
			for trial := 0; trial < 12; trial++ {
				lo := rng.Intn(stride + 1)
				hi := lo + rng.Intn(stride-lo+1)
				if trial == 0 {
					lo, hi = 0, stride
				}
				out := make([]float64, stride)
				for c := range out {
					out[c] = sentinel
				}
				DotColsRange(x, ct, stride, lo, hi, out)
				col := make([]float64, d)
				for c := range out {
					want := sentinel
					if c >= lo && c < hi {
						want = serialCol(x, ct, stride, c)
						for j := range col {
							col[j] = ct[j*stride+c]
						}
						if got := DotSerial(x, col); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("d=%d stride=%d col %d: DotSerial %x, want %x",
								d, stride, c, math.Float64bits(got), math.Float64bits(want))
						}
					}
					if math.Float64bits(out[c]) != math.Float64bits(want) {
						t.Fatalf("d=%d stride=%d [%d,%d) col %d: %x, want %x",
							d, stride, lo, hi, c, math.Float64bits(out[c]), math.Float64bits(want))
					}
				}
			}
		}
	}
}

// Min2G must return the two smallest of norms[s]-2*dots[s] on every
// path and length (vector blocks of 8 and 4 and a scalar tail), with
// +Inf padding norms and repeated values — a repeated minimum is also
// the second smallest — in the mix.
func TestMin2GMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	if m1, m2 := Min2G(nil, nil); !math.IsInf(m1, 1) || !math.IsInf(m2, 1) {
		t.Fatalf("empty Min2G = %v, %v, want +Inf, +Inf", m1, m2)
	}
	for n := 1; n <= 67; n++ {
		for trial := 0; trial < 20; trial++ {
			norms, dots := randVec(rng, n), randVec(rng, n)
			for s := range norms {
				switch rng.Intn(6) {
				case 0:
					norms[s] = math.Inf(1)
				case 1:
					norms[s], dots[s] = norms[0], dots[0]
				}
			}
			g := make([]float64, n, n+1)
			for s := range norms {
				g[s] = norms[s] - 2*dots[s]
			}
			sort.Float64s(g)
			g = append(g, math.Inf(1))
			for name, f := range map[string]func([]float64, []float64) (float64, float64){"Min2G": Min2G, "generic": min2GGeneric} {
				if m1, m2 := f(norms, dots); m1 != g[0] || m2 != g[1] {
					t.Fatalf("n=%d: %s = %v, %v, want %v, %v", n, name, m1, m2, g[0], g[1])
				}
			}
		}
	}
}

func BenchmarkDotCols(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const k, d = 300, 15
	ct := randVec(rng, k*d)
	x := randVec(rng, d)
	dots := make([]float64, k)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DotCols(x, ct, dots, k)
	}
}
