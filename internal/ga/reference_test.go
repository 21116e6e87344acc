package ga_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/stats"
)

// referenceFitness is the distance fitness as a straight chain of the
// plain stats entry points, recomputing everything per genome: select
// the columns, run their PCA, rescale the retained scores, take every
// pair's EuclideanDistance and correlate against the full space's
// distances with Pearson. DistanceFitness must return its bits.
func referenceFitness(t testing.TB, data *stats.Matrix, minPCStd float64) ga.Fitness {
	t.Helper()
	rescaled := func(m *stats.Matrix) (*stats.Matrix, error) {
		p, err := stats.ComputePCA(m, true)
		if err != nil {
			return nil, err
		}
		return p.RescaledScores(m, p.NumRetained(minPCStd))
	}
	full, err := rescaled(data)
	if err != nil {
		t.Fatal(err)
	}
	ref := pairDistances(full)
	return func(genomes [][]int, out []float64) {
		for i, selected := range genomes {
			out[i] = -1
			sel, err := data.SelectColumns(selected)
			if err != nil {
				continue
			}
			scores, err := rescaled(sel)
			if err != nil {
				continue
			}
			out[i] = stats.Pearson(ref, pairDistances(scores))
		}
	}
}

// pairDistances is the upper-triangle distance list, one
// EuclideanDistance call per pair.
func pairDistances(m *stats.Matrix) []float64 {
	var out []float64
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Rows; j++ {
			out = append(out, stats.EuclideanDistance(m.Row(i), m.Row(j)))
		}
	}
	return out
}

var (
	prominentOnce sync.Once
	prominent     *stats.Matrix
	prominentErr  error
)

// prominentMatrix is the 100 x 69 prominent-phase matrix of a small
// pipeline run: the data the paper's GA searches.
func prominentMatrix(t testing.TB) *stats.Matrix {
	t.Helper()
	prominentOnce.Do(func() {
		reg, err := bench.StandardRegistry()
		if err != nil {
			prominentErr = err
			return
		}
		cfg := core.TestConfig()
		cfg.NumClusters = 120
		cfg.NumProminent = 100
		res, err := core.Run(reg, cfg, nil)
		if err != nil {
			prominentErr = err
			return
		}
		prominent = res.ProminentRawMatrix()
	})
	if prominentErr != nil {
		t.Fatal(prominentErr)
	}
	if prominent.Rows != 100 {
		t.Fatalf("prominent matrix has %d rows, want 100", prominent.Rows)
	}
	return prominent
}

type namedMatrix struct {
	name string
	m    *stats.Matrix
}

// referenceMatrices returns the real prominent-phase matrix and
// adversarial variants of it: a constant column, duplicate rows, the
// 3-row minimum, and columns scaled by 1e-9 and 1e9.
func referenceMatrices(t testing.TB) []namedMatrix {
	real := prominentMatrix(t)
	constant := real.Clone()
	for i := 0; i < constant.Rows; i++ {
		constant.Set(i, 7, 0.25)
	}
	dup := real.Clone()
	for i := dup.Rows / 2; i < dup.Rows; i++ {
		copy(dup.Row(i), dup.Row(i-dup.Rows/2))
	}
	three := stats.NewMatrix(3, real.Cols)
	copy(three.Data, real.Data)
	scaled := real.Clone()
	for i := 0; i < scaled.Rows; i++ {
		row := scaled.Row(i)
		for j := 0; j < len(row); j += 5 {
			row[j] *= 1e-9
		}
		for j := 2; j < len(row); j += 5 {
			row[j] *= 1e9
		}
	}
	return []namedMatrix{{"prominent", real}, {"constant-column", constant}, {"duplicate-rows", dup}, {"three-rows", three}, {"scaled", scaled}}
}

// randomGenome draws a genome over p columns shaped like the GA's (12
// of 69, or the Figure 1 sweep's 1 to 24) and, one time in 32, of up to
// all p columns; a third come unsorted and one in eight repeats a
// column.
func randomGenome(p int, rng *rand.Rand) []int {
	n := 1 + rng.Intn(24)
	if rng.Intn(32) == 0 {
		n = 1 + rng.Intn(p)
	}
	g := rng.Perm(p)[:n]
	if rng.Intn(8) == 0 {
		g = append(g, g[rng.Intn(n)])
	}
	if rng.Intn(3) != 0 {
		sort.Ints(g)
	}
	return g
}

// referenceGenomes is how many random genomes each matrix is checked
// on; the race detector's run, which looks for data races rather than
// differing bits, checks fewer.
var referenceGenomes = 10000

func init() {
	if ga.RaceEnabled {
		referenceGenomes = 500
	}
}

// TestDistanceFitnessMatchesReference pins DistanceFitness to the
// recompute-everything chain, bit for bit, on the real prominent-phase
// matrix and its adversarial variants: random sorted, unsorted and
// repeated-column genomes, every single column, all columns, and
// rejected genomes (out of range or empty), which score -1. Each genome
// must get the same bits in whatever chunk it is scored: the genomes go
// through once in shuffled chunks of 1, 2, 3 and 4, which mix sizes and
// rejected genomes, and once in chunks of equal-size genomes, which run
// the lockstep Jacobi on every lane.
func TestDistanceFitnessMatchesReference(t *testing.T) {
	for mi, nm := range referenceMatrices(t) {
		t.Run(nm.name, func(t *testing.T) {
			t.Parallel()
			m := nm.m
			fitness, err := ga.DistanceFitness(m, 1.0)
			if err != nil {
				t.Fatal(err)
			}
			ref := referenceFitness(t, m, 1.0)
			all := make([]int, m.Cols)
			for i := range all {
				all[i] = i
			}
			genomes := [][]int{all, all[1:], {m.Cols - 1, 0}, {3, 3}, {0, m.Cols}, {-1}, {}}
			for c := 0; c < m.Cols; c++ {
				genomes = append(genomes, []int{c})
			}
			rng := rand.New(rand.NewSource(int64(100 + mi)))
			for len(genomes) < referenceGenomes+m.Cols {
				genomes = append(genomes, randomGenome(m.Cols, rng))
			}
			want := make([]float64, len(genomes))
			ref(genomes, want)
			for i, g := range genomes[4:7] {
				if want[4+i] != -1 {
					t.Fatalf("rejected genome %v: reference %v, want -1", g, want[4+i])
				}
			}

			shuffled := rng.Perm(len(genomes))
			bySize := append([]int(nil), shuffled...)
			sort.SliceStable(bySize, func(a, b int) bool { return len(genomes[bySize[a]]) < len(genomes[bySize[b]]) })
			for _, order := range [][]int{shuffled, bySize} {
				for lo, size := 0, 1; lo < len(order); lo, size = lo+size, size%4+1 {
					idx := order[lo:min(lo+size, len(order))]
					chunk := make([][]int, len(idx))
					for i, gi := range idx {
						chunk[i] = genomes[gi]
					}
					got := make([]float64, len(idx))
					fitness(chunk, got)
					for i, gi := range idx {
						if math.Float64bits(got[i]) != math.Float64bits(want[gi]) {
							t.Fatalf("genome %v in chunk %v: fitness %v (%#x), reference %v (%#x)",
								genomes[gi], chunk, got[i], math.Float64bits(got[i]), want[gi], math.Float64bits(want[gi]))
						}
					}
				}
			}
		})
	}
}

// sameSelection reports how two searches differ ("" when they do not):
// genes, fitness bits, generations and evaluations.
func sameSelection(got, want ga.Selection) string {
	if fmt.Sprint(got.Selected) != fmt.Sprint(want.Selected) ||
		math.Float64bits(got.Fitness) != math.Float64bits(want.Fitness) ||
		got.Generations != want.Generations || got.Evaluations != want.Evaluations {
		return fmt.Sprintf("%+v, reference %+v", got, want)
	}
	return ""
}

// TestDistanceFitnessSearchesMatchReference runs the GA over the
// prominent-phase matrix with DistanceFitness and with the reference
// chain: the paper's 12-key search at the default configuration, and a
// Figure 1 style sweep, must select the same genes with the same fitness
// bits after the same generations and evaluations, at every worker count.
func TestDistanceFitnessSearchesMatchReference(t *testing.T) {
	m := prominentMatrix(t)
	fitness, err := ga.DistanceFitness(m, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceFitness(t, m, 1.0)

	runCfg := ga.Config{TargetCount: 12, Seed: 77, Workers: 1}
	wantRun, err := ga.Run(m.Cols, ref, runCfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{1, 2, 4, 8, 12, 16, 24, m.Cols}
	sweepCfg := ga.Config{Seed: 5, Populations: 2, PopulationSize: 10, MaxGenerations: 12, Patience: 5, Workers: 1}
	wantSweep, err := ga.Sweep(m.Cols, ref, counts, sweepCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7} {
		runCfg.Workers, sweepCfg.Workers = workers, workers
		got, err := ga.Run(m.Cols, fitness, runCfg)
		if err != nil {
			t.Fatal(err)
		}
		if d := sameSelection(got, wantRun); d != "" {
			t.Fatalf("workers=%d Run: %s", workers, d)
		}
		sweep, err := ga.Sweep(m.Cols, fitness, counts, sweepCfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantSweep {
			if sweep[i].Count != wantSweep[i].Count {
				t.Fatalf("workers=%d Sweep point %d: count %d, want %d", workers, i, sweep[i].Count, wantSweep[i].Count)
			}
			if d := sameSelection(sweep[i].Selection, wantSweep[i].Selection); d != "" {
				t.Fatalf("workers=%d Sweep count %d: %s", workers, counts[i], d)
			}
		}
	}
}
