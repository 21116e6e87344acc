package cluster

import (
	"math"
	"sync"

	"repro/internal/kernel"
	"repro/internal/stats"
)

// groupSize is the target number of centers per bound group: a fit over
// k centers keeps ceil(k/groupSize) lower bounds per row. At k ≤ 32 that
// is a single bound over every other center — the classic Hamerly test —
// so small fits such as SelectK's timeline sweeps keep their old work.
// Wider groups prune less and narrower ones cost more bound upkeep per
// row. On the default pipeline's 11,550 x 10 scores at k = 300, fits
// evaluated 19% of the unpruned row×center pairs with 32 centers per
// group; with 64 they evaluated 29% and ran 1.22x slower, with 16 they
// evaluated 16% and ran 1.09x slower (paired medians of six runs on a
// 2-vCPU x86-64 host).
const groupSize = 32

// groupingSteps is the number of Lloyd steps groupCenters runs over the
// initial centers.
const groupingSteps = 5

// centerGroups is one fit's scan layout. The k centers are partitioned
// into groups once, from the initial centers; each group's centers sit in
// contiguous slots of one transposed block, in ascending center index,
// and each group is padded to a multiple of the column kernel's 4-lane
// width, so scanning a group is one vector-only kernel.DotColsRange call
// and scanning every center is one call over the whole block. Centers
// keep their indices everywhere else; only the scan order changes.
type centerGroups struct {
	start      []int     // group g owns slots [start[g], start[g+1])
	size       []int     // real centers in group g; its later slots are padding
	slotCenter []int     // center held by each slot (-1 for padding)
	slotOf     []int     // slot holding each center
	groupOf    []int     // group of each center
	width      int       // slots in the block, a multiple of 4
	ct         []float64 // d x width transposed centers; padding columns stay 0
	slotNorm   []float64 // |c|² of the center in each slot; +Inf for padding
	delta      []float64 // per group: the largest move of its centers in the last update
}

// newCenterGroups lays out k centers in ceil(k/groupSize) groups (fewer
// if the grouping leaves some empty). The layout is empty of values until
// load fills it.
func newCenterGroups(centers *stats.Matrix, k int) *centerGroups {
	groups := (k + groupSize - 1) / groupSize
	groupOf := groupCenters(centers, k, groups)
	count := make([]int, groups)
	for _, g := range groupOf {
		count[g]++
	}
	cg := &centerGroups{slotOf: make([]int, k), groupOf: make([]int, k)}
	renum := make([]int, groups)
	for g, c := range count {
		if c == 0 {
			continue
		}
		renum[g] = len(cg.size)
		cg.start = append(cg.start, cg.width)
		cg.size = append(cg.size, c)
		cg.width += (c + 3) &^ 3
	}
	cg.start = append(cg.start, cg.width)
	cg.slotCenter = make([]int, cg.width)
	for s := range cg.slotCenter {
		cg.slotCenter[s] = -1
	}
	next := append([]int(nil), cg.start...)
	for c, g := range groupOf {
		g = renum[g]
		cg.groupOf[c] = g
		cg.slotOf[c] = next[g]
		cg.slotCenter[next[g]] = c
		next[g]++
	}
	cg.ct = make([]float64, centers.Cols*cg.width)
	cg.slotNorm = make([]float64, cg.width)
	for s, c := range cg.slotCenter {
		if c < 0 {
			cg.slotNorm[s] = math.Inf(1)
		}
	}
	cg.delta = make([]float64, len(cg.size))
	return cg
}

// groupCenters partitions k centers into at most groups groups by
// groupingSteps Lloyd steps over the centers themselves, seeded by the
// first groups centers (ties to the lowest group). The rule draws no
// randomness, so the layout — and every pruning decision built on it — is
// a pure function of the initial centers.
func groupCenters(centers *stats.Matrix, k, groups int) []int {
	groupOf := make([]int, k)
	if groups <= 1 {
		return groupOf
	}
	d := centers.Cols
	means := stats.NewMatrix(groups, d)
	copy(means.Data, centers.Data[:groups*d])
	sums := stats.NewMatrix(groups, d)
	count := make([]int, groups)
	for step := 0; ; step++ {
		for c := 0; c < k; c++ {
			x := centers.Row(c)
			best, bestD2 := 0, math.Inf(1)
			for g := 0; g < groups; g++ {
				if d2 := kernel.SquaredDistance(x, means.Row(g)); d2 < bestD2 {
					best, bestD2 = g, d2
				}
			}
			groupOf[c] = best
		}
		if step == groupingSteps {
			return groupOf
		}
		clear(sums.Data)
		clear(count)
		for c, g := range groupOf {
			count[g]++
			kernel.Add(sums.Row(g), centers.Row(c))
		}
		for g, n := range count {
			if n == 0 {
				continue // an empty group keeps its mean
			}
			inv := 1 / float64(n)
			dst, src := means.Row(g), sums.Row(g)
			for j := range dst {
				dst[j] = src[j] * inv
			}
		}
	}
}

// load copies the centers into the transposed block and their squared
// norms into the slots.
func (cg *centerGroups) load(centers *stats.Matrix, centerNorm []float64) {
	w := cg.width
	for c, s := range cg.slotOf {
		for j, v := range centers.Row(c) {
			cg.ct[j*w+s] = v
		}
		cg.slotNorm[s] = centerNorm[c]
	}
}

// groupMin2 reads group g's column dots from dots and returns the two
// smallest g values (g = |c|² - 2·x·c, which orders centers as |x-c|²
// does) over the group: the nearest center's, and the nearest other
// center's. Padding slots hold +Inf norms and never count.
func (cg *centerGroups) groupMin2(g int, dots []float64) (float64, float64) {
	lo, hi := cg.start[g], cg.start[g+1]
	return kernel.Min2G(cg.slotNorm[lo:hi], dots[lo:hi])
}

// firstAt returns the first slot of group g whose g value equals v — the
// lowest center index holding it, since slots ascend in center index —
// or -1 if none does (only possible for a NaN v).
func (cg *centerGroups) firstAt(g int, dots []float64, v float64) int {
	for s := cg.start[g]; s < cg.start[g]+cg.size[g]; s++ {
		if cg.slotNorm[s]-2*dots[s] == v {
			return s
		}
	}
	return -1
}

// scanBuf is one chunk's scan scratch: the column dots of a row against
// the block, each group's two smallest g values, and the list of groups a
// pruned row rescanned. Pooled as a pointer so the Get/Put round trip
// never allocates.
type scanBuf struct {
	dots, m1, m2 []float64
	scanned      []int
}

var scanPool sync.Pool

func getScanBuf(width, groups int) *scanBuf {
	b, _ := scanPool.Get().(*scanBuf)
	if b == nil {
		b = &scanBuf{}
	}
	b.dots = growF64(b.dots, width)
	b.m1 = growF64(b.m1, groups)
	b.m2 = growF64(b.m2, groups)
	b.scanned = growInts(b.scanned, groups)
	return b
}

// rowDist is the distance a g value stands for, given the row's |x|².
// Cancellation can push an exact 0 slightly negative, hence the clamp.
func rowDist(xNorm, g float64) float64 {
	d2 := xNorm + g
	if d2 < 0 {
		d2 = 0
	}
	return math.Sqrt(d2)
}

// boundMargin is how far a lower bound must clear an upper bound before
// the pruned pass trusts it. Bounds are built from g values computed
// through the norm expansion, whose round-off grows with the norms
// involved. With r the largest norm of any row or initial center (later
// centers are means of rows, or rows), a computed distance is within
// s = 2r·sqrt((d+4)·2⁻⁵⁰) of the true one — a wide cover of the
// γ(d+2)·(|x|+|c|)² error of the computed squared distance. Bounds are
// stored uncorrected, so a lower bound that clears an upper one by 4s
// proves a gap of more than 2s between the true distances, and that gap
// keeps every computed g value of the other centers strictly above the
// assigned center's: no scan could have picked another center, even on
// a tie.
func boundMargin(d int, dataNorm, centerNorm []float64) float64 {
	var r2 float64
	for _, v := range dataNorm {
		r2 = max(r2, v)
	}
	for _, v := range centerNorm {
		r2 = max(r2, v)
	}
	return 8 * math.Sqrt(float64(d+4)*0x1p-50*r2)
}
