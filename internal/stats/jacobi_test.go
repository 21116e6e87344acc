package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// scalarJacobi is the classical cyclic Jacobi the lane code must
// reproduce: one matrix, At/Set-free flat indexing, every rotation's
// column, row and eigenvector loops written out. It also reports how
// many sweeps rotated and how many elements were skipped as negligible,
// so a test can check which paths its matrices take.
func scalarJacobi(a *Matrix, maxSweeps int, tol float64) (vals, vT []float64, sweeps, skips int, err error) {
	if err := checkSymmetric(a); err != nil {
		return nil, nil, 0, 0, err
	}
	n := a.Rows
	md := append([]float64(nil), a.Data...)
	vT = make([]float64, n*n)
	for i := 0; i < n; i++ {
		vT[i*n+i] = 1
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for _, v := range md[i*n+i+1 : (i+1)*n] {
				off += v * v
			}
		}
		if off < tol*tol {
			break
		}
		sweeps++
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := md[p*n+q]
				if math.Abs(apq) < 1e-300 {
					skips++
					continue
				}
				app, aqq := md[p*n+p], md[q*n+q]
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				for k := 0; k < n; k++ {
					akp, akq := md[k*n+p], md[k*n+q]
					md[k*n+p] = c*akp - s*akq
					md[k*n+q] = s*akp + c*akq
				}
				for k := 0; k < n; k++ {
					apk, aqk := md[p*n+k], md[q*n+k]
					md[p*n+k] = c*apk - s*aqk
					md[q*n+k] = s*apk + c*aqk
				}
				for k := 0; k < n; k++ {
					vkp, vkq := vT[p*n+k], vT[q*n+k]
					vT[p*n+k] = c*vkp - s*vkq
					vT[q*n+k] = s*vkp + c*vkq
				}
			}
		}
	}
	vals = make([]float64, n)
	for i := range vals {
		vals[i] = md[i*n+i]
	}
	return vals, vT, sweeps, skips, nil
}

// symmetric returns a random symmetric n x n matrix whose off-diagonal
// entries are scaled by off.
func symmetric(rng *rand.Rand, n int, off float64) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, rng.NormFloat64()*float64(1+i))
		for j := i + 1; j < n; j++ {
			v := off * rng.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

// TestJacobiLanesMatchLoneRuns runs one to four lanes of same-size
// matrices through the lockstep Jacobi, in every rotation of the lane
// order, and requires each lane to return the error, eigenvalue and
// eigenvector bits of a lone one-lane run and of the classical scalar
// loops. Each case pins one way the lanes part: they converge at
// different sweeps; one lane skips negligible elements (a block-diagonal
// matrix keeps its cross-block zeros exact); maxSweeps stops every lane
// before it converges; one lane is not symmetric and only it fails.
func TestJacobiLanesMatchLoneRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, n := range []int{5, 12} {
		diag := symmetric(rng, n, 0)
		near := symmetric(rng, n, 1e-9)
		dense := symmetric(rng, n, 1)
		block := symmetric(rng, n, 1)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if (i < n/2) != (j < n/2) {
					block.Set(i, j, 0)
				}
			}
		}
		skewed := symmetric(rng, n, 1)
		skewed.Set(0, n-1, skewed.At(0, n-1)+1)
		for _, c := range []struct {
			name      string
			mats      []*Matrix
			maxSweeps int
			check     func(sweeps, skips []int, errs []error) string
		}{
			{"converge-apart", []*Matrix{dense, near, diag, symmetric(rng, n, 1e3)}, 200,
				func(sweeps, _ []int, _ []error) string {
					if sweeps[0] == sweeps[1] || sweeps[1] == sweeps[2] || sweeps[2] != 0 {
						return fmt.Sprintf("sweeps %v do not differ", sweeps)
					}
					return ""
				}},
			{"skip", []*Matrix{dense, block, near, symmetric(rng, n, 1)}, 200,
				func(_, skips []int, _ []error) string {
					if skips[0] != 0 || skips[1] == 0 {
						return fmt.Sprintf("skips %v: want only the block-diagonal lane to skip", skips)
					}
					return ""
				}},
			{"max-sweeps", []*Matrix{dense, symmetric(rng, n, 1), symmetric(rng, n, 10), block}, 1,
				func(sweeps, _ []int, _ []error) string {
					for _, s := range sweeps {
						if s != 1 {
							return fmt.Sprintf("sweeps %v: want every lane cut at 1", sweeps)
						}
					}
					return ""
				}},
			{"non-symmetric", []*Matrix{dense, skewed, near, block}, 200,
				func(_, _ []int, errs []error) string {
					if errs[0] != nil || errs[1] == nil || errs[2] != nil || errs[3] != nil {
						return fmt.Sprintf("errors %v: want only the skewed lane to fail", errs)
					}
					return ""
				}},
		} {
			tol := 1e-12
			wantVals := make([][]float64, len(c.mats))
			wantVT := make([][]float64, len(c.mats))
			sweeps := make([]int, len(c.mats))
			skips := make([]int, len(c.mats))
			wantErr := make([]error, len(c.mats))
			for l, m := range c.mats {
				wantVals[l], wantVT[l], sweeps[l], skips[l], wantErr[l] = scalarJacobi(m, c.maxSweeps, tol)
				var lone jacobiWork
				err := jacobiEigenInto(m, c.maxSweeps, tol, &lone)
				if (err == nil) != (wantErr[l] == nil) || (err == nil && (!sameBits(lone.vals, wantVals[l]) || !sameBits(lone.vT.Data, wantVT[l]))) {
					t.Fatalf("n=%d %s: lone run of matrix %d differs from the scalar loops", n, c.name, l)
				}
			}
			if msg := c.check(sweeps, skips, wantErr); msg != "" {
				t.Fatalf("n=%d %s: %s", n, c.name, msg)
			}
			for lanes := 1; lanes <= Lanes; lanes++ {
				for first := range c.mats {
					var a [Lanes]*Matrix
					var w [Lanes]*jacobiWork
					var errs [Lanes]error
					for l := 0; l < lanes; l++ {
						a[l], w[l] = c.mats[(first+l)%len(c.mats)], new(jacobiWork)
					}
					jacobiLanes(a[:lanes], c.maxSweeps, tol, w[:lanes], errs[:lanes])
					for l := 0; l < lanes; l++ {
						m := (first + l) % len(c.mats)
						if (errs[l] == nil) != (wantErr[m] == nil) {
							t.Fatalf("n=%d %s: %d lanes from %d, lane %d error %v, want %v", n, c.name, lanes, first, l, errs[l], wantErr[m])
						}
						if errs[l] == nil && (!sameBits(w[l].vals, wantVals[m]) || !sameBits(w[l].vT.Data, wantVT[m])) {
							t.Fatalf("n=%d %s: %d lanes from %d, lane %d differs from its lone run", n, c.name, lanes, first, l)
						}
					}
				}
			}
		}
	}
}
