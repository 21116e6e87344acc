// Lane kernels for the GA's two hot loops: the Jacobi row-pair rotation
// and one row of pairwise distances. Like DotCols, both put vector lanes
// where the scalar code has independent values, never partial sums of
// one value: Rotate's lanes hold different elements of the rotated rows,
// DistanceRow's lanes hold different partner points. Each lane performs
// exactly the scalar code's operations in the scalar code's order, with
// every product rounded before it is added (FMA is not used), so the
// SIMD path and the generic path below return the same bits, except that
// a NaN result may be a different NaN.

package kernel

import (
	"fmt"
	"math"
)

// Rotate applies the plane rotation (c, s) to the element pairs of x and
// y: x[k], y[k] = c·x[k] − s·y[k], s·x[k] + c·y[k] for every k, each
// element with its own two products and one subtract or add. The Jacobi
// eigensolver rotates its rows p and q and its eigenvector rows p and q
// with it.
func Rotate(x, y []float64, c, s float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("kernel: rotate of rows of length %d and %d", len(x), len(y)))
	}
	rotate(x, y, c, s)
}

// rotateGeneric is the portable Rotate and the reference its assembly
// matches.
func rotateGeneric(x, y []float64, c, s float64) {
	y = y[:len(x)]
	for k, xk := range x {
		yk := y[k]
		x[k] = c*xk - s*yk
		y[k] = s*xk + c*yk
	}
}

// DistanceRow fills out[j-i-1], for every partner j in (i, n), with the
// Euclidean distance between points i and j of the column-major k x n
// block ct (ct[c*n+j] is coordinate c of point j, the transpose of an
// n x k row-major matrix). Each distance is bit for bit Distance of the
// two points' rows: four accumulators indexed by coordinate mod 4, the
// tail into the first, the (s0+s1)+(s2+s3) combine, then the square
// root.
func DistanceRow(ct []float64, k, n, i int, out []float64) {
	if i < 0 || i >= n || len(ct) < k*n || len(out) < n-i-1 {
		panic(fmt.Sprintf("kernel: distance row %d of a %dx%d block needs %d values and %d slots, have %d and %d",
			i, k, n, k*n, n-i-1, len(ct), len(out)))
	}
	distanceRow(ct, k, n, i, out[:n-i-1])
}

// distanceRowGeneric is the portable DistanceRow over the partners
// [lo, hi), out[j-lo] for each j, and the reference its assembly
// matches.
func distanceRowGeneric(ct []float64, k, n, i, lo, hi int, out []float64) {
	k4 := k &^ 3
	for j := lo; j < hi; j++ {
		var s0, s1, s2, s3 float64
		c := 0
		for ; c < k4; c += 4 {
			e0 := ct[c*n+i] - ct[c*n+j]
			e1 := ct[(c+1)*n+i] - ct[(c+1)*n+j]
			e2 := ct[(c+2)*n+i] - ct[(c+2)*n+j]
			e3 := ct[(c+3)*n+i] - ct[(c+3)*n+j]
			s0 += e0 * e0
			s1 += e1 * e1
			s2 += e2 * e2
			s3 += e3 * e3
		}
		for ; c < k; c++ {
			e := ct[c*n+i] - ct[c*n+j]
			s0 += e * e
		}
		out[j-lo] = math.Sqrt((s0 + s1) + (s2 + s3))
	}
}
