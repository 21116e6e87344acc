package stats

import (
	"fmt"
	"math"

	"repro/internal/kernel"
)

// PCA holds the result of a principal components analysis: the components
// (eigenvectors of the covariance matrix), their variances (eigenvalues)
// and the column statistics of the input data that scores must be computed
// against.
type PCA struct {
	// Components is p x p: row k is the loading vector of principal
	// component k (components are sorted by decreasing variance).
	Components *Matrix
	// Variances are the eigenvalues, sorted decreasing.
	Variances []float64
	// InputStats holds the mean/std the input was normalized with before
	// the analysis (all-zero std entries mean no scaling was applied).
	InputStats ColumnStats
	// TotalVariance is the sum of all eigenvalues.
	TotalVariance float64
}

// ComputePCA runs a principal components analysis on the rows of data. If
// normalize is true (the usual case for workload characterization, where
// the characteristics live on wildly different scales), columns are first
// normalized to zero mean and unit variance.
func ComputePCA(data *Matrix, normalize bool) (*PCA, error) {
	// A throwaway workspace: the returned PCA takes sole ownership of the
	// freshly allocated buffers.
	return new(PCAWorkspace).ComputePCA(data, normalize)
}

// NumRetained returns how many leading components have standard deviation
// greater than minStd (the paper retains components with std > 1 on
// normalized data). At least one component is always retained.
func (p *PCA) NumRetained(minStd float64) int {
	n := 0
	for _, v := range p.Variances {
		if math.Sqrt(math.Max(v, 0)) > minStd {
			n++
		}
	}
	if n == 0 {
		n = 1
	}
	return n
}

// ExplainedVariance returns the fraction of total variance captured by the
// first k components.
func (p *PCA) ExplainedVariance(k int) float64 {
	if p.TotalVariance == 0 {
		return 0
	}
	if k > len(p.Variances) {
		k = len(p.Variances)
	}
	var s float64
	for i := 0; i < k; i++ {
		s += p.Variances[i]
	}
	return s / p.TotalVariance
}

// Project maps the rows of data (raw, un-normalized) into the space of the
// first k principal components, applying the stored normalization.
func (p *PCA) Project(data *Matrix, k int) (*Matrix, error) {
	if err := p.checkProject(data.Cols, k); err != nil {
		return nil, err
	}
	out := NewMatrix(data.Rows, k)
	centered := make([]float64, data.Cols)
	p.projectInto(data, k, out, centered)
	return out, nil
}

// checkProject rejects projecting cols-column data onto k components.
func (p *PCA) checkProject(cols, k int) error {
	if cols != p.Components.Cols {
		return fmt.Errorf("stats: projecting %d-column data through %d-column PCA", cols, p.Components.Cols)
	}
	if k < 1 || k > p.Components.Rows {
		return fmt.Errorf("stats: cannot retain %d of %d components", k, p.Components.Rows)
	}
	return nil
}

// projectInto writes the k-component scores of data into out (pre-sized
// Rows x k) using centered (pre-sized Cols) as per-row scratch. The
// per-component score is a kernel dot product of the loading vector with
// the centered row.
func (p *PCA) projectInto(data *Matrix, k int, out *Matrix, centered []float64) {
	for i := 0; i < data.Rows; i++ {
		row := data.Row(i)
		for j, v := range row {
			d := v - p.InputStats.Mean[j]
			if p.InputStats.Std[j] > 0 {
				d /= p.InputStats.Std[j]
			}
			centered[j] = d
		}
		dst := out.Row(i)
		for c := 0; c < k; c++ {
			dst[c] = kernel.Dot(p.Components.Row(c), centered)
		}
	}
}

// RescaledScores projects data onto the first k components and then
// normalizes each score column to unit variance — the paper's "rescaled
// PCA space", which gives every retained underlying program characteristic
// equal weight in subsequent distance computations.
func (p *PCA) RescaledScores(data *Matrix, k int) (*Matrix, error) {
	scores, err := p.Project(data, k)
	if err != nil {
		return nil, err
	}
	rescaled, _ := scores.Normalize()
	return rescaled, nil
}

// jacobiWork holds the working set of one Jacobi eigendecomposition; the
// eigenvectors accumulate in vT with one eigenvector per ROW (the
// transpose of the classical column layout), which keeps every rotation
// update contiguous.
type jacobiWork struct {
	m    *Matrix
	vT   *Matrix
	vals []float64
}

// JacobiEigen computes all eigenvalues and eigenvectors of the symmetric
// matrix a using the cyclic Jacobi rotation method. It returns the
// eigenvalues and a matrix whose columns are the corresponding
// eigenvectors. a is not modified.
func JacobiEigen(a *Matrix, maxSweeps int, tol float64) ([]float64, *Matrix, error) {
	var w jacobiWork
	if err := jacobiEigenInto(a, maxSweeps, tol, &w); err != nil {
		return nil, nil, err
	}
	// Keep the documented columns-are-eigenvectors contract.
	n := a.Rows
	v := NewMatrix(n, n)
	kernel.Transpose(w.vT.Data, n, n, v.Data)
	return w.vals, v, nil
}

// Lanes is how many same-size symmetric matrices one lockstep Jacobi
// decomposes together (SubsetPCAs): the GA scores its genomes in chunks
// of this many.
const Lanes = 4

// jacobiEigenInto is JacobiEigen on caller-owned buffers: the one-lane
// case of jacobiLanes.
func jacobiEigenInto(a *Matrix, maxSweeps int, tol float64, w *jacobiWork) error {
	var err [1]error
	jacobiLanes([]*Matrix{a}, maxSweeps, tol, []*jacobiWork{w}, err[:])
	return err[0]
}

// jacobiLanes decomposes up to Lanes same-size matrices in lockstep:
// lane l decomposes a[l] into w[l] and reports its error in errs[l]. It
// works on flat slices instead of At/Set index arithmetic. Every
// rotation applies the same per-element expressions in the same order
// as the classical formulation (each element is read and written exactly
// once per pass), so results are bit-identical to it; only the
// eigenvector layout differs (w[l].vT rows are eigenvectors).
//
// The lanes share the cyclic (p, q) order and nothing else: each checks
// its own symmetry, leaves at the first sweep whose off-diagonal norm is
// under tol², stops at maxSweeps and skips its own negligible elements,
// so each performs exactly the operations a lone run performs. What the
// lockstep buys is overlap: a rotation's parameters are a divide, square
// root, divide, square root chain that waits on the previous rotation's
// diagonal. At each (p, q) every lane computes its parameters before any
// lane rotates, so the lanes' independent chains run side by side.
func jacobiLanes(a []*Matrix, maxSweeps int, tol float64, w []*jacobiWork, errs []error) {
	n := a[0].Rows
	var md, vtd [Lanes][]float64
	var live [Lanes]int // lanes still rotating
	nl := 0
	for l, al := range a {
		if al.Rows != n {
			panic(fmt.Sprintf("stats: lockstep Jacobi over %d- and %d-row matrices", n, al.Rows))
		}
		if errs[l] = checkSymmetric(al); errs[l] != nil {
			continue
		}
		wl := w[l]
		wl.m = growMatrixInto(wl.m, n, n)
		wl.vT = growMatrixInto(wl.vT, n, n)
		wl.vals = growFloats(wl.vals, n)
		md[l], vtd[l] = wl.m.Data, wl.vT.Data
		copy(md[l], al.Data)
		clear(vtd[l])
		for i := 0; i < n; i++ {
			vtd[l][i*n+i] = 1
		}
		live[nl] = l
		nl++
	}

	for sweep := 0; sweep < maxSweeps && nl > 0; sweep++ {
		// Off-diagonal norm for convergence, per lane.
		kept := 0
		for _, l := range live[:nl] {
			if !(offDiagonal(md[l], n) < tol*tol) {
				live[kept] = l
				kept++
			}
		}
		nl = kept
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				var c, s [Lanes]float64
				var rot [Lanes]bool
				for _, l := range live[:nl] {
					c[l], s[l], rot[l] = rotation(md[l], n, p, q)
				}
				for _, l := range live[:nl] {
					if rot[l] {
						rotate(md[l], vtd[l], n, p, q, c[l], s[l])
					}
				}
			}
		}
	}

	for l := range a {
		if errs[l] == nil {
			for i := 0; i < n; i++ {
				w[l].vals[i] = md[l][i*n+i]
			}
		}
	}
}

// checkSymmetric rejects a matrix that is not square, or not symmetric
// within a tolerance scaled by magnitude.
func checkSymmetric(a *Matrix) error {
	n := a.Rows
	if n != a.Cols {
		return fmt.Errorf("stats: Jacobi on non-square %dx%d matrix", a.Rows, a.Cols)
	}
	ad := a.Data
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			x, y := ad[i*n+j], ad[j*n+i]
			d := math.Abs(x - y)
			scale := math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
			if d > 1e-8*scale {
				return fmt.Errorf("stats: Jacobi on non-symmetric matrix (|a[%d,%d]-a[%d,%d]| = %g)", i, j, j, i, d)
			}
		}
	}
	return nil
}

// offDiagonal is the sum of squares of the n x n matrix md's upper
// triangle, in row order.
func offDiagonal(md []float64, n int) float64 {
	var off float64
	for i := 0; i < n; i++ {
		row := md[i*n+i+1 : (i+1)*n]
		for _, v := range row {
			off += v * v
		}
	}
	return off
}

// rotation returns the rotation (c, s) that zeroes element (p, q) of the
// n x n matrix md, or ok false when that element is negligible and the
// rotation is skipped.
//
// The classical formula branches on the sign of theta: t is
// 1/(theta + √(1+theta²)) when theta ≥ 0 and −1/(−theta + √(1+theta²))
// otherwise. That sign is a coin flip the processor mispredicts half the
// time, and each miss discards the other lanes' work in flight, so the
// sign is applied without a branch instead: for theta < 0, −theta is
// |theta| and −1/x is −(1/x), so t is 1/(|theta| + √(1+theta²)) with its
// sign bit set, the classical bits for every theta that is not NaN.
func rotation(md []float64, n, p, q int) (c, s float64, ok bool) {
	apq := md[p*n+q]
	if math.Abs(apq) < 1e-300 {
		return 0, 0, false
	}
	app := md[p*n+p]
	aqq := md[q*n+q]
	theta := (aqq - app) / (2 * apq)
	var neg uint64
	if !(theta >= 0) {
		neg = 1 << 63
	}
	t := math.Float64frombits(math.Float64bits(1/(math.Abs(theta)+math.Sqrt(1+theta*theta))) ^ neg)
	c = 1 / math.Sqrt(1+t*t)
	return c, t * c, true
}

// rotate applies J(p, q) with parameters (c, s) to the n x n matrix md,
// columns p and q first, then rows p and q, and to the eigenvector
// accumulator vtd, whose transposed layout makes its update a row pair
// too.
func rotate(md, vtd []float64, n, p, q int, c, s float64) {
	for k := 0; k < n; k++ {
		kp, kq := k*n+p, k*n+q
		akp, akq := md[kp], md[kq]
		md[kp] = c*akp - s*akq
		md[kq] = s*akp + c*akq
	}
	kernel.Rotate(md[p*n:(p+1)*n], md[q*n:(q+1)*n], c, s)
	kernel.Rotate(vtd[p*n:(p+1)*n], vtd[q*n:(q+1)*n], c, s)
}
