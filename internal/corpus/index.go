package corpus

// The in-memory query index: every corpus record, in global sequence
// order, normalized per-column over the whole corpus and laid out as
// transposed blocks for kernel.DotCols — the same column-scan kernel
// (and the same determinism contract: serial per-column sums, ties to
// the lowest index) the k-means assignment runs on. An index is
// immutable once built, so any number of queries read it at once. The
// exact scan visits every row for "nearest". A coarse IVF partition,
// built once per index under a deterministic k-means quantizer by the
// first query that needs it, serves the rest: probed
// "nearest" (Probe > 0) visits only the nearest lists, and each
// uniqueness or novelty row visits only the lists a triangle-inequality
// bound cannot rule out, testing their rows with the exact scan's own
// arithmetic, so those answers are the exact scan's. Everything derived
// here is a pure function of the manifest's record set, so query
// answers are byte-identical across worker counts, before and after
// compaction, and via CLI or service.

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/cluster"
	"repro/internal/kernel"
	"repro/internal/stats"
)

// idxEntry is one indexed record with resolved provenance.
type idxEntry struct {
	bench   string
	suite   string
	kind    Kind
	index   int
	seq     uint64
	dataset uint64
	params  uint64
	seed    uint64
}

// scanBlock is a run of consecutive index rows in the transposed
// column-major layout DotCols consumes, with precomputed squared norms.
const scanBlockRows = 256

type scanBlock struct {
	start, n int
	ct       []float64 // dim x n, column-major
	norms    []float64 // squared norms of the n normalized rows
}

// index is the queryable in-memory corpus image. Nothing in it changes
// after buildIndex returns except ivf, which ivfOnce guards.
type index struct {
	dim     int
	entries []idxEntry
	norm    *stats.Matrix // normalized rows, entry order
	cs      stats.ColumnStats
	blocks  []scanBlock
	byBench map[string][]int // interval rows per benchmark ID
	bySuite map[string][]int // interval rows per suite
	// benchKey and suiteKey number every row's benchmark and suite
	// string (a centroid's are normally ""), so queries exclude rows by
	// comparing integers: two rows share a key exactly when they share
	// the string.
	benchKey, suiteKey []int32

	ivfOnce sync.Once
	ivf     *ivfIndex // built on first probed or radius query
}

// noKey excludes no row from a nearest query: keys are non-negative.
const noKey int32 = -1

// buildIndex assembles the segments into one index. Rows land in
// global sequence order whatever the segment layout, which is what
// makes the scan's tie-break (lowest row index = oldest record) stable
// across compaction.
func buildIndex(segs []*segment, dim int) (*index, error) {
	total := 0
	for _, s := range segs {
		total += len(s.recs)
		if len(s.recs) > 0 && s.vecs.Cols != dim {
			return nil, fmt.Errorf("corpus: segment dim %d, manifest dim %d", s.vecs.Cols, dim)
		}
	}
	ix := &index{
		dim:      dim,
		entries:  make([]idxEntry, 0, total),
		byBench:  make(map[string][]int),
		bySuite:  make(map[string][]int),
		benchKey: make([]int32, total),
		suiteKey: make([]int32, total),
	}
	type row struct {
		e   idxEntry
		vec []float64
	}
	rows := make([]row, 0, total)
	for _, s := range segs {
		for i := range s.recs {
			r := s.recs[i]
			b, ing := s.benches[r.benchRef], s.ingests[r.ingestRef]
			rows = append(rows, row{
				e: idxEntry{
					bench: b.id, suite: b.suite, kind: r.kind, index: int(r.index),
					seq: r.seq, dataset: ing.dataset, params: ing.params, seed: ing.seed,
				},
				vec: s.vecs.Row(i),
			})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].e.seq < rows[j].e.seq })

	raw := stats.NewMatrix(total, dim)
	benchKeys, suiteKeys := make(map[string]int32), make(map[string]int32)
	key := func(keys map[string]int32, s string) int32 {
		k, ok := keys[s]
		if !ok {
			k = int32(len(keys))
			keys[s] = k
		}
		return k
	}
	for i := range rows {
		e := &rows[i].e
		ix.entries = append(ix.entries, *e)
		copy(raw.Row(i), rows[i].vec)
		ix.benchKey[i], ix.suiteKey[i] = key(benchKeys, e.bench), key(suiteKeys, e.suite)
		if e.kind == KindInterval {
			ix.byBench[e.bench] = append(ix.byBench[e.bench], i)
			ix.bySuite[e.suite] = append(ix.bySuite[e.suite], i)
		}
	}
	if total == 0 {
		ix.norm = raw
		return ix, nil
	}

	// Normalize per column over the whole corpus (zero-variance columns
	// collapse to zero, as in the pipeline's pre-PCA normalization), so
	// distances weight each characteristic by its corpus-wide spread
	// rather than its unit of measure.
	ix.norm, ix.cs = raw.Normalize()
	if !finite(ix.norm.Data) {
		// Finite values whose column sums overflow: a NaN distance would
		// break every answer's order, so no query is answered.
		return nil, fmt.Errorf("corpus: a column's values overflow its corpus-wide normalization")
	}

	for start := 0; start < total; start += scanBlockRows {
		n := total - start
		if n > scanBlockRows {
			n = scanBlockRows
		}
		blk := scanBlock{
			start: start, n: n,
			ct:    make([]float64, dim*n),
			norms: make([]float64, n),
		}
		kernel.Transpose(ix.norm.Data[start*dim:(start+n)*dim], n, dim, blk.ct)
		kernel.RowSquaredNorms(ix.norm.Data[start*dim:(start+n)*dim], n, dim, blk.norms)
		ix.blocks = append(ix.blocks, blk)
	}
	return ix, nil
}

// normalize maps a raw vector into the index's normalized space.
func (ix *index) normalize(raw []float64) []float64 {
	q := make([]float64, ix.dim)
	for j := 0; j < ix.dim; j++ {
		if ix.cs.Std[j] > 0 {
			q[j] = (raw[j] - ix.cs.Mean[j]) / ix.cs.Std[j]
		}
	}
	return q
}

// rowNorm is index row r's squared norm as the scan blocks store it.
func (ix *index) rowNorm(r int) float64 {
	blk := &ix.blocks[r/scanBlockRows]
	return blk.norms[r-blk.start]
}

// Neighbor is one query answer row.
type Neighbor struct {
	// Bench/Suite identify the record's benchmark ("" for centroids).
	Bench string `json:"bench,omitempty"`
	Suite string `json:"suite,omitempty"`
	// Kind is "interval" or "centroid".
	Kind string `json:"kind"`
	// Index is the interval index or cluster number.
	Index int `json:"index"`
	// Seq is the record's global ingest sequence number.
	Seq uint64 `json:"seq"`
	// Dataset is the ingest's dataset hash (provenance).
	Dataset uint64 `json:"dataset"`
	// Distance is the Euclidean distance in the corpus-normalized
	// characteristic space.
	Distance float64 `json:"distance"`
}

// candidate is a scan hit ordered by (distance², row).
type candidate struct {
	d2  float64
	row int
}

// pushCandidate inserts c into the ascending top-k list. Rows are
// offered in ascending order, so equal distances resolve to the oldest
// record deterministically.
func pushCandidate(cand []candidate, k int, c candidate) []candidate {
	if len(cand) == k && c.d2 >= cand[k-1].d2 {
		return cand
	}
	i := sort.Search(len(cand), func(i int) bool {
		return cand[i].d2 > c.d2 || (cand[i].d2 == c.d2 && cand[i].row > c.row)
	})
	if len(cand) < k {
		cand = append(cand, candidate{})
	}
	copy(cand[i+1:], cand[i:])
	cand[i] = c
	return cand
}

// nearest returns the k nearest rows to the normalized query qn,
// skipping every row whose benchmark key is exclude (noKey skips none).
// It reports how many rows it scanned. probe > 0 routes through the IVF
// layer.
func (ix *index) nearest(qn []float64, k, probe int, exclude int32) ([]candidate, int) {
	if probe > 0 {
		return ix.nearestIVF(ix.ivfLayer(), qn, k, probe, exclude)
	}
	qq := kernel.SquaredNorm(qn)
	var cand []candidate
	scanned := 0
	dots := make([]float64, scanBlockRows)
	for _, blk := range ix.blocks {
		kernel.DotCols(qn, blk.ct, dots, blk.n)
		scanned += blk.n
		for i := 0; i < blk.n; i++ {
			row := blk.start + i
			if ix.benchKey[row] == exclude {
				continue
			}
			d2 := qq + blk.norms[i] - 2*dots[i]
			if d2 < 0 {
				d2 = 0
			}
			cand = pushCandidate(cand, k, candidate{d2: d2, row: row})
		}
	}
	return cand, scanned
}

// UniquenessResult is one benchmark's corpus-uniqueness: the paper's
// "fraction of sampled execution in benchmark-specific clusters"
// recast against the whole corpus — the fraction of the benchmark's
// interval records with no foreign interval within the radius.
type UniquenessResult struct {
	Bench      string  `json:"bench"`
	Rows       int     `json:"rows"`
	Unique     int     `json:"unique"`
	Uniqueness float64 `json:"uniqueness"`
}

// NoveltyResult is one suite's corpus-novelty: the fraction of its
// interval records with no interval from any other suite within the
// radius, with the per-benchmark split.
type NoveltyResult struct {
	Suite   string             `json:"suite"`
	Rows    int                `json:"rows"`
	Novel   int                `json:"novel"`
	Novelty float64            `json:"novelty"`
	Benches []UniquenessResult `json:"benches,omitempty"`
}

// uniqueness computes the corpus-uniqueness of one benchmark.
func (ix *index) uniqueness(bench string, radius float64) (UniquenessResult, int, error) {
	rows := ix.byBench[bench]
	if len(rows) == 0 {
		return UniquenessResult{}, 0, badQueryf("corpus: benchmark %q has no intervals in the corpus", bench)
	}
	res := UniquenessResult{Bench: bench, Rows: len(rows)}
	scanned := 0
	within := ix.withinRadius(radius, ix.benchKey, ix.benchKey[rows[0]])
	for _, r := range rows {
		hit, n := within(r)
		scanned += n
		if !hit {
			res.Unique++
		}
	}
	res.Uniqueness = float64(res.Unique) / float64(res.Rows)
	return res, scanned, nil
}

// novelty computes the corpus-novelty of one suite. The per-benchmark
// split uses the same other-suite exclusion, so a benchmark that only
// resembles its suite siblings still counts as novel here (and not in
// uniqueness) — exactly the suite-specific vs benchmark-specific
// distinction of the paper's cluster taxonomy.
func (ix *index) novelty(suite string, radius float64) (NoveltyResult, int, error) {
	rows := ix.bySuite[suite]
	if len(rows) == 0 {
		return NoveltyResult{}, 0, badQueryf("corpus: suite %q has no intervals in the corpus", suite)
	}
	res := NoveltyResult{Suite: suite, Rows: len(rows)}
	scanned := 0
	within := ix.withinRadius(radius, ix.suiteKey, ix.suiteKey[rows[0]])
	perBench := make(map[string]*UniquenessResult)
	var order []string
	for _, r := range rows {
		hit, n := within(r)
		scanned += n
		id := ix.entries[r].bench
		ur := perBench[id]
		if ur == nil {
			ur = &UniquenessResult{Bench: id}
			perBench[id] = ur
			order = append(order, id)
		}
		ur.Rows++
		if !hit {
			res.Novel++
			ur.Unique++
		}
	}
	res.Novelty = float64(res.Novel) / float64(res.Rows)
	sort.Strings(order)
	for _, id := range order {
		ur := perBench[id]
		ur.Uniqueness = float64(ur.Unique) / float64(ur.Rows)
		res.Benches = append(res.Benches, *ur)
	}
	return res, scanned, nil
}

// --- IVF partition layer (probed nearest, pruned radius queries) ---

// ivfNlistCap bounds the coarse-quantizer size; sqrt(N) lists keep both
// the center scan and the probed lists around sqrt(N) rows.
const ivfNlistCap = 256

type ivfIndex struct {
	nlist    int
	centersT []float64 // dim x nlist, column-major
	norms    []float64 // squared norms of the centers
	lists    []ivfList
	maxLen   int     // rows in the longest list
	margin   float64 // round-off cover of the radius skip rule
}

// ivfList is one partition list, laid out for the radius path.
type ivfList struct {
	rows   []int32   // member rows, ascending
	ct     []float64 // the members transposed, dim x len(rows), for DotCols
	norms  []float64 // the members' squared norms, the scan blocks' bits
	radius float64   // the largest member distance from the center
}

// ivfLayer returns the coarse partition, building it on first use. The
// first query that needs it builds it while any others that do wait;
// queries that do not never wait.
func (ix *index) ivfLayer() *ivfIndex {
	ix.ivfOnce.Do(func() { ix.ivf = ix.buildIVF() })
	return ix.ivf
}

// buildIVF builds the coarse partition. A corpus too small for the
// quantizer (fewer than two rows per would-be list) gets one list of
// every row, centered at the origin (the normalized corpus's mean),
// through which probed and radius queries visit every row.
func (ix *index) buildIVF() *ivfIndex {
	n := len(ix.entries)
	nlist := int(math.Sqrt(float64(n)))
	if nlist > ivfNlistCap {
		nlist = ivfNlistCap
	}
	centers, assign := stats.NewMatrix(1, ix.dim), make([]int, n)
	if nlist >= 1 && n >= 2*nlist {
		// The coarse quantizer is a small deterministic k-means over the
		// normalized corpus — fixed seed, fixed options, worker-independent
		// by the cluster package's contract — so the partition (and with it
		// every probed answer) is a pure function of the record set.
		res, err := cluster.KMeans(ix.norm, nlist, cluster.Options{
			MaxIters: 25, Restarts: 1, Seed: 1,
		})
		if err == nil {
			centers, assign = res.Centers, res.Assignments
		}
	}
	nlist = centers.Rows
	ivf := &ivfIndex{
		nlist:    nlist,
		centersT: make([]float64, ix.dim*nlist),
		norms:    make([]float64, nlist),
		lists:    make([]ivfList, nlist),
	}
	kernel.Transpose(centers.Data, nlist, ix.dim, ivf.centersT)
	kernel.RowSquaredNorms(centers.Data, nlist, ix.dim, ivf.norms)
	for row, a := range assign {
		ivf.lists[a].rows = append(ivf.lists[a].rows, int32(row))
	}
	m2 := 0.0 // the largest squared norm of any row or center
	for _, v := range ivf.norms {
		m2 = max(m2, v)
	}
	ct := make([]float64, n*ix.dim) // every list's block, back to back
	for c := range ivf.lists {
		l := &ivf.lists[c]
		k := len(l.rows)
		l.ct, ct = ct[:k*ix.dim], ct[k*ix.dim:]
		l.norms = make([]float64, k)
		mu := centers.Row(c)
		for i, r := range l.rows {
			d2 := 0.0
			for j, x := range ix.norm.Row(int(r)) {
				l.ct[j*k+i] = x
				d := x - mu[j]
				d2 += d * d
			}
			l.radius = max(l.radius, math.Sqrt(d2))
			l.norms[i] = ix.rowNorm(int(r))
			m2 = max(m2, l.norms[i])
		}
		ivf.maxLen = max(ivf.maxLen, k)
	}
	// The radius skip rule. For a query row q and a list with center μ
	// and radius R = max |x − μ| over its members, the triangle
	// inequality gives |q − x| ≥ |q − μ| − R for every member x, so no
	// member lies within the radius once |q − μ| − R > radius. But a list
	// may be skipped only when no member could pass the exact scan's
	// *computed* test qq + |x|² − 2·dot ≤ radius², so the computed bound
	// must clear the radius by a margin covering three round-offs. With
	// u = 2⁻⁵³, γ = (d+2)u/(1−(d+2)u) and M² the largest squared norm of
	// any row or center (m2):
	//
	//   - the scan's computed d² is within γ(|q|+|x|)² ≤ 4γM² of
	//     |q − x|², so a member can pass the test only if
	//     |q − x| ≤ sqrt(radius²(1+u) + 4γM²) ≤ radius(1+u) + 2M·√γ;
	//   - the computed center distance comes through the same norm
	//     expansion, so it is within 2M·√γ (plus the rounding of its
	//     square root, u relative) of |q − μ|;
	//   - R comes from direct differences, about γ/2 relative on a value
	//     below 2M.
	//
	// So a bound that clears the radius by 4M·√γ plus terms of order uM
	// proves the skip. (A skipped list has a bound above the radius and
	// below about 2M, so the radius's own rounding is of order uM too.)
	// The margin 8·sqrt((d+4)·2⁻⁵⁰·M²) = 8√8·M·sqrt((d+4)u), the form of
	// the k-means bounds' cluster.boundMargin, covers that about 5.7x
	// over. A NaN norm makes the margin NaN, and a NaN comparison never
	// skips, so such a corpus visits every list.
	ivf.margin = 8 * math.Sqrt(float64(ix.dim+4)*0x1p-50*m2)
	return ivf
}

// nearestIVF scans only the probe nearest partitions. Candidate rows
// are visited in ascending row order so ties resolve exactly as the
// exact scan does; with probe >= nlist the answer is identical to it.
func (ix *index) nearestIVF(ivf *ivfIndex, qn []float64, k, probe int, exclude int32) ([]candidate, int) {
	if probe > ivf.nlist {
		probe = ivf.nlist
	}
	dots := make([]float64, ivf.nlist)
	kernel.DotCols(qn, ivf.centersT, dots, ivf.nlist)
	order := make([]candidate, ivf.nlist)
	for c := 0; c < ivf.nlist; c++ {
		order[c] = candidate{d2: ivf.norms[c] - 2*dots[c], row: c}
	}
	sort.Slice(order, func(i, j int) bool {
		return order[i].d2 < order[j].d2 || (order[i].d2 == order[j].d2 && order[i].row < order[j].row)
	})
	var rows []int32
	for _, o := range order[:probe] {
		rows = append(rows, ivf.lists[o.row].rows...)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })

	qq := kernel.SquaredNorm(qn)
	var cand []candidate
	for _, r := range rows {
		row := int(r)
		if ix.benchKey[row] == exclude {
			continue
		}
		// Bit-identical to the exact scan's arithmetic: the same stored
		// block norm, and the dot in strictly ascending coordinate order
		// (DotCols' per-column sum order on both its paths).
		rv := ix.norm.Row(row)
		dot := 0.0
		for j, q := range qn {
			dot += q * rv[j]
		}
		d2 := qq + ix.rowNorm(row) - 2*dot
		if d2 < 0 {
			d2 = 0
		}
		cand = pushCandidate(cand, k, candidate{d2: d2, row: row})
	}
	return cand, len(rows)
}

// withinRadius returns the radius test of one uniqueness or novelty
// query: whether any interval row whose key in keys (benchKey or
// suiteKey) is not key lies within radius of index row r in normalized
// space, and how many rows the test visited. It visits the partition
// lists the skip rule (buildIVF) cannot rule out, in ascending order of
// (bound, list), and tests their rows with the exact scan's bits: the
// same stored norms, and DotCols' serial per-column dots, whatever the
// block. So its answer is the exact scan's; it returns at the first
// hit, and a visited list counts all its rows, excluded ones included,
// as the exact scan counts whole blocks. The test reuses its buffers,
// so a query calls it from one goroutine.
func (ix *index) withinRadius(radius float64, keys []int32, key int32) func(r int) (bool, int) {
	ivf := ix.ivfLayer()
	r2 := radius * radius
	limit := radius + ivf.margin
	cdots := make([]float64, ivf.nlist)
	order := make([]candidate, 0, ivf.nlist) // (bound, list)
	dots := make([]float64, ivf.maxLen)
	return func(r int) (bool, int) {
		qn := ix.norm.Row(r)
		qq := kernel.SquaredNorm(qn)
		kernel.DotCols(qn, ivf.centersT, cdots, ivf.nlist)
		order = order[:0]
		for c := range ivf.lists {
			l := &ivf.lists[c]
			bound := sqrt(qq+ivf.norms[c]-2*cdots[c]) - l.radius
			if len(l.rows) > 0 && !(bound > limit) {
				order = append(order, candidate{d2: bound, row: c})
			}
		}
		slices.SortFunc(order, func(a, b candidate) int {
			return cmp.Or(cmp.Compare(a.d2, b.d2), cmp.Compare(a.row, b.row))
		})
		scanned := 0
		for _, o := range order {
			l := &ivf.lists[o.row]
			kernel.DotCols(qn, l.ct, dots, len(l.rows))
			scanned += len(l.rows)
			for i, row := range l.rows {
				// Most rows lie beyond the radius, so the distance
				// test comes first; the exclusion only sees rows
				// within it.
				if qq+l.norms[i]-2*dots[i] <= r2 && keys[row] != key && ix.entries[row].kind == KindInterval {
					return true, scanned
				}
			}
		}
		return false, scanned
	}
}
