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

// jacobiEigenInto is JacobiEigen on caller-owned buffers, operating on
// flat slices instead of At/Set index arithmetic. Every rotation applies
// the same per-element expressions in the same order as the classical
// formulation (each element is read and written exactly once per pass),
// so results are bit-identical to it; only the eigenvector layout
// differs (w.vT rows are eigenvectors).
func jacobiEigenInto(a *Matrix, maxSweeps int, tol float64, w *jacobiWork) error {
	n := a.Rows
	if n != a.Cols {
		return fmt.Errorf("stats: Jacobi on non-square %dx%d matrix", a.Rows, a.Cols)
	}
	ad := a.Data
	// Verify symmetry (within tolerance scaled by magnitude).
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

	w.m = growMatrixInto(w.m, n, n)
	w.vT = growMatrixInto(w.vT, n, n)
	w.vals = growFloats(w.vals, n)
	md, vtd := w.m.Data, w.vT.Data
	copy(md, ad)
	for i := range vtd {
		vtd[i] = 0
	}
	for i := 0; i < n; i++ {
		vtd[i*n+i] = 1
	}

	for sweep := 0; sweep < maxSweeps; sweep++ {
		// Off-diagonal norm for convergence.
		var off float64
		for i := 0; i < n; i++ {
			row := md[i*n+i+1 : (i+1)*n]
			for _, v := range row {
				off += v * v
			}
		}
		if off < tol*tol {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := md[p*n+q]
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app := md[p*n+p]
				aqq := md[q*n+q]
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c

				// Apply rotation J(p, q, theta): columns p and q of m...
				for k := 0; k < n; k++ {
					kp, kq := k*n+p, k*n+q
					akp, akq := md[kp], md[kq]
					md[kp] = c*akp - s*akq
					md[kq] = s*akp + c*akq
				}
				// ...then rows p and q (contiguous in the flat layout)...
				rowp := md[p*n : (p+1)*n : (p+1)*n]
				rowq := md[q*n : (q+1)*n : (q+1)*n]
				for k := 0; k < n; k++ {
					apk, aqk := rowp[k], rowq[k]
					rowp[k] = c*apk - s*aqk
					rowq[k] = s*apk + c*aqk
				}
				// ...and the eigenvector accumulator, whose transposed
				// layout makes this contiguous too.
				vp := vtd[p*n : (p+1)*n : (p+1)*n]
				vq := vtd[q*n : (q+1)*n : (q+1)*n]
				for k := 0; k < n; k++ {
					vkp, vkq := vp[k], vq[k]
					vp[k] = c*vkp - s*vkq
					vq[k] = s*vkp + c*vkq
				}
			}
		}
	}

	for i := 0; i < n; i++ {
		w.vals[i] = md[i*n+i]
	}
	return nil
}
