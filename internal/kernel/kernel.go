// Package kernel holds the shared dense-float64 micro-kernels behind
// every analysis stage: dot products, squared distances, row norms and
// the column scan at the heart of k-means assignment (dotcols.go). It is
// a leaf package (no repo-internal imports), so cluster, stats, ga and
// core can all share exactly one implementation of each primitive.
//
// Every kernel uses the same blocked shape: a main loop over len&^3
// elements with four independent accumulators (breaking the add-latency
// dependency chain that serializes a naive scalar loop), operands
// re-sliced to a common length so the compiler can drop bounds checks,
// and a scalar tail. The lanes are always combined in the fixed order
// (s0+s1)+(s2+s3), so for a given input length the result is a pure
// function of the inputs — deterministic across runs, worker counts and
// call sites — even though it differs in round-off from a serial
// left-to-right sum. Callers that persist derived artifacts version
// them (core.engineSchemaVersion) so cached values from the old
// reduction order miss instead of mixing.
package kernel

import (
	"fmt"
	"math"
)

// Dot returns the dot product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("kernel: dot of vectors of length %d and %d", len(a), len(b)))
	}
	var s0, s1, s2, s3 float64
	n4 := len(a) &^ 3
	b = b[:len(a)]
	j := 0
	for ; j < n4; j += 4 {
		s0 += a[j] * b[j]
		s1 += a[j+1] * b[j+1]
		s2 += a[j+2] * b[j+2]
		s3 += a[j+3] * b[j+3]
	}
	for ; j < len(a); j++ {
		s0 += a[j] * b[j]
	}
	return (s0 + s1) + (s2 + s3)
}

// SquaredNorm returns the squared L2 norm of x.
func SquaredNorm(x []float64) float64 {
	var s0, s1, s2, s3 float64
	n4 := len(x) &^ 3
	j := 0
	for ; j < n4; j += 4 {
		s0 += x[j] * x[j]
		s1 += x[j+1] * x[j+1]
		s2 += x[j+2] * x[j+2]
		s3 += x[j+3] * x[j+3]
	}
	for ; j < len(x); j++ {
		s0 += x[j] * x[j]
	}
	return (s0 + s1) + (s2 + s3)
}

// SquaredDistance returns the squared Euclidean distance between two
// equal-length vectors.
func SquaredDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("kernel: distance between vectors of length %d and %d", len(a), len(b)))
	}
	var s0, s1, s2, s3 float64
	n4 := len(a) &^ 3
	b = b[:len(a)]
	j := 0
	for ; j < n4; j += 4 {
		d0 := a[j] - b[j]
		d1 := a[j+1] - b[j+1]
		d2 := a[j+2] - b[j+2]
		d3 := a[j+3] - b[j+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; j < len(a); j++ {
		d := a[j] - b[j]
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// Distance returns the Euclidean distance between two equal-length
// vectors. This is the repo's one distance implementation; every caller
// (stats.EuclideanDistance, k-means seeding, hierarchical clustering,
// SimPoint accuracy) routes through it, except stats.PairwiseDistances,
// which runs DistanceRow: each of its lanes repeats SquaredDistance's
// arithmetic, and tests pin the two bit for bit.
func Distance(a, b []float64) float64 {
	return math.Sqrt(SquaredDistance(a, b))
}

// Axpy computes y[i] += alpha*x[i]. The update is elementwise (each
// slot independent), so the unrolled form is bit-identical to a scalar
// loop.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("kernel: axpy over vectors of length %d and %d", len(x), len(y)))
	}
	n4 := len(x) &^ 3
	y = y[:len(x)]
	j := 0
	for ; j < n4; j += 4 {
		y[j] += alpha * x[j]
		y[j+1] += alpha * x[j+1]
		y[j+2] += alpha * x[j+2]
		y[j+3] += alpha * x[j+3]
	}
	for ; j < len(x); j++ {
		y[j] += alpha * x[j]
	}
}

// Add computes dst[i] += src[i] (Axpy with alpha fixed at 1, without
// the multiply). Elementwise, so bit-identical to a scalar loop.
func Add(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("kernel: add over vectors of length %d and %d", len(dst), len(src)))
	}
	n4 := len(dst) &^ 3
	src = src[:len(dst)]
	j := 0
	for ; j < n4; j += 4 {
		dst[j] += src[j]
		dst[j+1] += src[j+1]
		dst[j+2] += src[j+2]
		dst[j+3] += src[j+3]
	}
	for ; j < len(dst); j++ {
		dst[j] += src[j]
	}
}

// RowSquaredNorms fills out[i] with the squared L2 norm of row i of the
// rows x cols row-major matrix data — the |x|² term of the expansion
// |x-c|² = |x|² - 2·x·c + |c|² that the assignment scans cache.
func RowSquaredNorms(data []float64, rows, cols int, out []float64) {
	if len(data) < rows*cols || len(out) < rows {
		panic(fmt.Sprintf("kernel: row norms of %dx%d from %d values into %d slots", rows, cols, len(data), len(out)))
	}
	for i := 0; i < rows; i++ {
		out[i] = SquaredNorm(data[i*cols : (i+1)*cols])
	}
}
