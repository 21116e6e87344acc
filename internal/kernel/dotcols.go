// Column-blocked center scan. The k-means assignment loop is the one
// place in the repo where scalar code cannot reach the hardware: a
// row-major scan is a chain of short dot products whose 2-loads+1-mul+
// 1-add per element saturate the scalar FP ports at ~1 multiply-add per
// cycle. Storing the centers transposed (column-major, d rows of k
// contiguous values) turns the scan into a rank-1 update — for each
// coordinate j, add x[j]*column_j to a running vector of k partial dots
// — which SIMD units execute four centers at a time.
//
// Determinism contract: out[c] is the strictly serial, ascending-j sum
// of x[j]*ct[j*k+c]. Vector lanes hold *different centers*, never
// partial sums of one center, so the SIMD path performs the exact same
// additions in the exact same order as the scalar path and the results
// are bit-identical on every platform (FMA is not used for the same
// reason). This is unlike the 4-wide lane-split kernels in kernel.go,
// whose documented reduction order is (s0+s1)+(s2+s3).

package kernel

import (
	"fmt"
	"math"
)

// DotCols fills out[c], c in [0,k), with the dot product of x against
// column c of the len(x) x k row-major matrix ct (i.e. ct holds one row
// of k values per coordinate of x — a transposed centers block). The
// per-column sum order is strictly ascending in the coordinate index,
// identical on the SIMD and scalar paths.
func DotCols(x, ct, out []float64, k int) {
	DotColsRange(x, ct, k, 0, k, out)
}

// DotColsRange is DotCols over the column sub-range [lo, hi) of a
// len(x) x stride row-major matrix ct: it fills out[c] for c in [lo, hi)
// and leaves the rest of out untouched. Each column's sum is the same
// serial ascending-j sum DotCols computes, whatever the range, so a
// caller may scan a wide block piecewise (a group of columns at a time,
// or a single column) and get the bits a full scan would. Ranges whose
// width is a multiple of 4 run entirely on the vector path.
func DotColsRange(x, ct []float64, stride, lo, hi int, out []float64) {
	d := len(x)
	if lo < 0 || hi < lo || hi > stride || len(out) < hi || (d > 0 && len(ct) < (d-1)*stride+hi) {
		panic(fmt.Sprintf("kernel: dotcols of dim %d over columns [%d,%d) of stride %d needs %d values and %d slots, have %d and %d",
			d, lo, hi, stride, d*stride, hi, len(ct), len(out)))
	}
	if d == 0 {
		clear(out[lo:hi])
		return
	}
	dotCols(x, ct[lo:], out[lo:hi], stride, hi-lo)
}

// DotSerial returns the dot product of two equal-length vectors summed
// strictly left to right, one unfused product at a time: bit for bit the
// value DotCols stores for a column holding b. A caller scanning centers
// through a transposed block uses it to re-evaluate one center from its
// row-major copy and still get the scan's bits.
func DotSerial(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("kernel: dot of vectors of length %d and %d", len(a), len(b)))
	}
	b = b[:len(a)]
	var s float64
	for j, v := range a {
		s += float64(v * b[j])
	}
	return s
}

// Min2G returns the two smallest g = norms[s] - 2*dots[s] over the slots
// of a scanned block: m1 the minimum and m2 the next value up (m1 again
// when the minimum occurs twice; +Inf for missing values). With dots from
// DotCols and norms the columns' squared norms, m1 is the g of the column
// nearest to x (g differs from |x-c|² by the constant |x|²) and m2 the g
// of the nearest other column. Every g is rounded exactly as that
// expression rounds it on every path; only the comparison order varies,
// which cannot change either value for non-NaN inputs (a zero may come
// back with either sign).
func Min2G(norms, dots []float64) (m1, m2 float64) {
	if len(dots) < len(norms) {
		panic(fmt.Sprintf("kernel: min g over %d norms and %d dots", len(norms), len(dots)))
	}
	return min2G(norms, dots[:len(norms)])
}

// min2GGeneric is the portable Min2G.
func min2GGeneric(norms, dots []float64) (float64, float64) {
	dots = dots[:len(norms)]
	m1, m2 := math.Inf(1), math.Inf(1)
	for s, nrm := range norms {
		if g := nrm - 2*dots[s]; g < m2 {
			if g < m1 {
				m1, m2 = g, m1
			} else {
				m2 = g
			}
		}
	}
	return m1, m2
}

// dotColsGeneric is the portable implementation and the bit-exact
// reference for the assembly path. The float64 conversions pin each
// product's rounding, so a compiler that fuses multiply-adds cannot make
// this path differ from the assembly (which never uses FMA).
func dotColsGeneric(x, ct, out []float64, stride, k int) {
	out = out[:k]
	for c := range out {
		out[c] = 0
	}
	for j, xj := range x {
		row := ct[j*stride : j*stride+k : j*stride+k]
		c := 0
		// 4 independent accumulator chains across centers; each
		// center's own sum still grows by exactly one add per j.
		for ; c+4 <= k; c += 4 {
			out[c] += float64(xj * row[c])
			out[c+1] += float64(xj * row[c+1])
			out[c+2] += float64(xj * row[c+2])
			out[c+3] += float64(xj * row[c+3])
		}
		for ; c < k; c++ {
			out[c] += float64(xj * row[c])
		}
	}
}

// Transpose fills ct (column-major, cols rows of `rows` values) from the
// rows x cols row-major matrix data, the layout DotCols consumes.
func Transpose(data []float64, rows, cols int, ct []float64) {
	if len(data) < rows*cols || len(ct) < rows*cols {
		panic(fmt.Sprintf("kernel: transpose of %dx%d over %d and %d values", rows, cols, len(data), len(ct)))
	}
	for i := 0; i < rows; i++ {
		row := data[i*cols : (i+1)*cols]
		for j, v := range row {
			ct[j*rows+i] = v
		}
	}
}
