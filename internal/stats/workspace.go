// PCAWorkspace: buffer reuse for the PCA -> rescale chain, which the GA
// fitness function runs once per genome evaluation — tens of thousands
// of times per sweep. A workspace owns one reusable buffer per stage;
// repeated evaluations overwrite instead of reallocating. Results
// computed through a workspace are bit-identical to the plain entry
// points (both run the same helper code on fully overwritten buffers);
// only the allocation behavior differs. Standardized holds what those
// evaluations share.
package stats

import (
	"fmt"
	"sort"

	"repro/internal/kernel"
)

// growFloats is kernel.GrowFloats under its historical local name; the
// shared implementation lives in internal/kernel so cluster and stats
// stop carrying duplicate copies.
func growFloats(s []float64, n int) []float64 { return kernel.GrowFloats(s, n) }

// GrowMatrix returns a rows x cols matrix backed by m's Data when it is
// large enough, allocating a fresh matrix otherwise. Contents are
// unspecified; callers fully overwrite before reading. It is the Matrix
// counterpart of kernel.GrowFloats/GrowInts and is shared with the
// cluster package's pooled scratch.
func GrowMatrix(m *Matrix, rows, cols int) *Matrix {
	if m == nil || cap(m.Data) < rows*cols {
		return NewMatrix(rows, cols)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
	return m
}

func growMatrixInto(m *Matrix, rows, cols int) *Matrix { return GrowMatrix(m, rows, cols) }

// Standardized is a data matrix prepared once for many subset PCAs: its
// raw column statistics, its z-scored copy and the covariance of that
// copy. Each is computed column by column, or column pair by column
// pair, so the values a PCA of any column subset derives are already in
// it: PCAWorkspace.SubsetPCA and SubsetRescaledScores gather them
// instead of recomputing. A Standardized is read-only once built and
// safe for concurrent use.
type Standardized struct {
	stats ColumnStats // raw per-column mean and std
	z     *Matrix     // the data z-scored with stats
	cov   *Matrix     // Cols x Cols covariance of z
}

// Standardize precomputes data's column statistics, z-scores and their
// covariance with the helpers ComputePCA(data, true) runs. data is not
// retained.
func Standardize(data *Matrix) *Standardized {
	s := &Standardized{z: NewMatrix(data.Rows, data.Cols), cov: NewMatrix(data.Cols, data.Cols)}
	data.columnMeansStdsInto(&s.stats)
	data.normalizeInto(s.z, &s.stats)
	var cs ColumnStats
	s.z.covarianceInto(s.cov, &cs)
	return s
}

// PCAWorkspace holds reusable buffers for the analysis chain. The zero
// value is ready to use. Results returned by its methods alias the
// workspace and are valid only until the next call on the same
// workspace; a workspace must not be used concurrently.
type PCAWorkspace struct {
	work     *Matrix
	cov      *Matrix
	scores   *Matrix
	rescaled *Matrix
	scoresT  []float64
	inCS     ColumnStats
	covCS    ColumnStats
	scoreCS  ColumnStats
	jw       jacobiWork
	order    []int
	pca      PCA
	centered []float64
}

// ComputePCA is the package-level ComputePCA on reused buffers. The
// returned PCA (and its Components/Variances/InputStats) aliases the
// workspace.
func (w *PCAWorkspace) ComputePCA(data *Matrix, normalize bool) (*PCA, error) {
	if data.Rows < 2 {
		return nil, fmt.Errorf("stats: PCA needs at least 2 rows, have %d", data.Rows)
	}
	if data.Cols < 1 {
		return nil, fmt.Errorf("stats: PCA needs at least 1 column")
	}
	w.work = growMatrixInto(w.work, data.Rows, data.Cols)
	data.columnMeansStdsInto(&w.inCS)
	if !normalize {
		// Center only (PCA is defined on centered data): a unit std
		// makes normalizeInto divide by exactly 1, a no-op bit for bit.
		for j := range w.inCS.Std {
			w.inCS.Std[j] = 1
		}
	}
	data.normalizeInto(w.work, &w.inCS)

	p := data.Cols
	w.cov = growMatrixInto(w.cov, p, p)
	w.work.covarianceInto(w.cov, &w.covCS)
	return w.eigenPCA()
}

// SubsetPCA is ComputePCA(sel, true), bit for bit, where sel holds the
// columns cols (in that order, as Matrix.SelectColumns picks them) of
// the matrix s was built from. Nothing that does not depend on cols is
// recomputed: the input statistics and the covariance block are gathered
// from s, and only the eigendecomposition runs. z-scoring works one
// column at a time, and covariance entry (a, b) is the row-ordered sum
// of da·db over the rows where da ≠ 0, so the gathered values are the
// ones the subset would compute. That holds for any cols on finite data:
// for an unsorted pair the skipped rows differ, but they add only ±0 to
// a sum that is never −0. The returned PCA aliases the workspace. It is
// the one-lane SubsetPCAs.
func (w *PCAWorkspace) SubsetPCA(s *Standardized, cols []int) (*PCA, error) {
	var p [1]*PCA
	var err [1]error
	SubsetPCAs(s, []*PCAWorkspace{w}, [][]int{cols}, p[:], err[:])
	return p[0], err[0]
}

// SubsetPCAs is SubsetPCA(s, cols[l]) on workspace ws[l] for each of up
// to Lanes lanes, bit for bit: lane l's PCA or error lands in pcas[l] or
// errs[l]. Every group of lanes with the same number of columns is
// decomposed by one lockstep Jacobi, which leaves each lane the bits a
// lone decomposition would.
func SubsetPCAs(s *Standardized, ws []*PCAWorkspace, cols [][]int, pcas []*PCA, errs []error) {
	if len(cols) > Lanes || len(ws) < len(cols) || len(pcas) < len(cols) || len(errs) < len(cols) {
		panic(fmt.Sprintf("stats: %d subset PCAs over %d workspaces, %d lanes at most", len(cols), len(ws), Lanes))
	}
	var done [Lanes]bool
	for l, c := range cols {
		pcas[l] = nil
		errs[l] = ws[l].gatherSubset(s, c)
		done[l] = errs[l] != nil
	}
	for l := range cols {
		if done[l] {
			continue
		}
		var group [Lanes]int
		g := 0
		for m := l; m < len(cols); m++ {
			if !done[m] && len(cols[m]) == len(cols[l]) {
				group[g], done[m] = m, true
				g++
			}
		}
		eigenPCAs(ws, group[:g], pcas, errs)
	}
}

// gatherSubset validates cols and gathers their input statistics and
// covariance block from s into the workspace.
func (w *PCAWorkspace) gatherSubset(s *Standardized, cols []int) error {
	if err := checkCols(cols, s.z.Cols); err != nil {
		return err
	}
	if s.z.Rows < 2 {
		return fmt.Errorf("stats: PCA needs at least 2 rows, have %d", s.z.Rows)
	}
	if len(cols) < 1 {
		return fmt.Errorf("stats: PCA needs at least 1 column")
	}
	p := len(cols)
	w.inCS.Mean = growFloats(w.inCS.Mean, p)
	w.inCS.Std = growFloats(w.inCS.Std, p)
	w.cov = growMatrixInto(w.cov, p, p)
	for a, ca := range cols {
		w.inCS.Mean[a] = s.stats.Mean[ca]
		w.inCS.Std[a] = s.stats.Std[ca]
		src, dst := s.cov.Row(ca), w.cov.Row(a)
		for b, cb := range cols {
			dst[b] = src[cb]
		}
	}
	return nil
}

// eigenPCA finishes a PCA whose covariance matrix is in w.cov and whose
// input statistics are in w.inCS: the one-lane eigenPCAs.
func (w *PCAWorkspace) eigenPCA() (*PCA, error) {
	var p [1]*PCA
	var err [1]error
	eigenPCAs([]*PCAWorkspace{w}, []int{0}, p[:], err[:])
	return p[0], err[0]
}

// eigenPCAs finishes the PCAs of the workspaces ws[l], l in lanes (at
// most Lanes of them), whose covariance matrices (all the same size) are
// in their cov and whose input statistics are in their inCS: one
// lockstep Jacobi eigendecomposition, then each lane's eigenpairs sorted
// by decreasing eigenvalue into its pca. Lane l's PCA or error lands in
// pcas[l] or errs[l].
func eigenPCAs(ws []*PCAWorkspace, lanes []int, pcas []*PCA, errs []error) {
	var covs [Lanes]*Matrix
	var jws [Lanes]*jacobiWork
	var jerrs [Lanes]error
	for i, l := range lanes {
		covs[i], jws[i] = ws[l].cov, &ws[l].jw
	}
	n := len(lanes)
	jacobiLanes(covs[:n], 200, 1e-12, jws[:n], jerrs[:n])
	for i, l := range lanes {
		if errs[l] = jerrs[i]; errs[l] == nil {
			pcas[l] = ws[l].sortEigen()
		}
	}
}

// sortEigen sorts the eigenpairs in w.jw by decreasing eigenvalue into
// w.pca.
func (w *PCAWorkspace) sortEigen() *PCA {
	p := w.cov.Rows
	vals := w.jw.vals

	// sort.Slice is unstable, so exactly equal eigenvalues
	// (rank-deficient or symmetric data) need an explicit tie-break on
	// the original eigenpair index to keep the component order
	// deterministic.
	if cap(w.order) < p {
		w.order = make([]int, p)
	}
	order := w.order[:p]
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		va, vb := vals[order[a]], vals[order[b]]
		if va != vb {
			return va > vb
		}
		return order[a] < order[b]
	})

	w.pca = PCA{
		Components: growMatrixInto(w.pca.Components, p, p),
		Variances:  growFloats(w.pca.Variances, p),
		InputStats: w.inCS,
	}
	w.pca.TotalVariance = 0
	for k, idx := range order {
		v := vals[idx]
		if v < 0 && v > -1e-10 {
			v = 0 // numerical noise on rank-deficient data
		}
		w.pca.Variances[k] = v
		w.pca.TotalVariance += v
		// Eigenvector idx is row idx of the transposed accumulator.
		copy(w.pca.Components.Row(k), w.jw.vT.Row(idx))
	}
	return &w.pca
}

// SubsetRescaledScores is PCA.RescaledScores(sel, k), bit for bit, for
// p = SubsetPCA(s, cols) and sel the selected columns that call stands
// for. Each row's centered input is gathered from s's z-scores, which
// are exactly the (v − mean)/std that projection would compute, and the
// scores are then projected and rescaled as RescaledScores does. The
// returned matrix aliases the workspace.
func (w *PCAWorkspace) SubsetRescaledScores(s *Standardized, cols []int, p *PCA, k int) (*Matrix, error) {
	if err := checkCols(cols, s.z.Cols); err != nil {
		return nil, err
	}
	if err := p.checkProject(len(cols), k); err != nil {
		return nil, err
	}
	n := s.z.Rows
	w.scores = growMatrixInto(w.scores, n, k)
	w.centered = growFloats(w.centered, len(cols))
	centered := w.centered
	for i := 0; i < n; i++ {
		z := s.z.Row(i)
		for j, c := range cols {
			centered[j] = z[c]
		}
		dst := w.scores.Row(i)
		for c := range dst {
			dst[c] = kernel.Dot(p.Components.Row(c), centered)
		}
	}
	w.scores.columnMeansStdsInto(&w.scoreCS)
	w.rescaled = growMatrixInto(w.rescaled, n, k)
	w.scores.normalizeInto(w.rescaled, &w.scoreCS)
	return w.rescaled, nil
}

// SubsetDistances is PairwiseDistances of SubsetRescaledScores(s, cols,
// p, k) into dst (grown when too short), bit for bit, without the
// distances' sum: the GA sums several genomes' distances in one
// interleaved loop. The rescaled scores are written transposed once, into
// the workspace, for the distance kernel. The distances alias dst.
func (w *PCAWorkspace) SubsetDistances(s *Standardized, cols []int, p *PCA, k int, dst []float64) ([]float64, error) {
	scores, err := w.SubsetRescaledScores(s, cols, p, k)
	if err != nil {
		return nil, err
	}
	w.scoresT = growFloats(w.scoresT, scores.Rows*scores.Cols)
	return scores.distancesInto(dst, w.scoresT), nil
}

// checkCols rejects column indexes outside [0, n).
func checkCols(cols []int, n int) error {
	for _, c := range cols {
		if c < 0 || c >= n {
			return fmt.Errorf("stats: column %d out of range [0,%d)", c, n)
		}
	}
	return nil
}
