package ga

import (
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// scoreOne scores a single genome through fitness.
func scoreOne(fitness Fitness, genome []int) float64 {
	var s [1]float64
	fitness([][]int{genome}, s[:])
	return s[0]
}

// phaseData builds a matrix shaped like real MICA data: most columns are
// (noisily) correlated views of a shared group structure, so that a small
// column subset can reproduce the full-space distances; the listed noise
// columns carry no structure.
func phaseData(rows, cols int, noise []int, seed int64) *stats.Matrix {
	rng := rand.New(rand.NewSource(seed))
	isNoise := map[int]bool{}
	for _, j := range noise {
		isNoise[j] = true
	}
	m := stats.NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		group := float64(i % 4)
		row := m.Row(i)
		for j := 0; j < cols; j++ {
			if isNoise[j] {
				row[j] = rng.NormFloat64()
			} else {
				row[j] = group*float64(1+j%3) + 0.15*rng.NormFloat64()
			}
		}
	}
	return m
}

func TestDistanceFitnessPrefersSpanningSubsets(t *testing.T) {
	// Two independent structure factors, each echoed by six columns. A
	// subset covering both factors reproduces the full-space distances;
	// a same-size subset stuck in one factor cannot.
	rng := rand.New(rand.NewSource(1))
	data := stats.NewMatrix(48, 12)
	for i := 0; i < 48; i++ {
		a := float64(i % 4)
		b := float64((i / 4) % 3)
		row := data.Row(i)
		for j := 0; j < 6; j++ {
			row[j] = a*float64(1+j%2) + 0.1*rng.NormFloat64()
		}
		for j := 6; j < 12; j++ {
			row[j] = b*float64(1+j%3) + 0.1*rng.NormFloat64()
		}
	}
	// A retention threshold of 1.0 would drop the second component of a
	// two-column subset outright (each factor has ~unit variance after
	// normalization); a lower threshold isolates the spanning property.
	fitness, err := DistanceFitness(data, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	spanning := scoreOne(fitness, []int{0, 6})
	oneFactor := scoreOne(fitness, []int{0, 1})
	if spanning <= oneFactor {
		t.Fatalf("spanning subset scored %v, one-factor subset %v", spanning, oneFactor)
	}
	if spanning < 0.9 {
		t.Fatalf("spanning subset correlation only %v", spanning)
	}
}

func TestDistanceFitnessFullSetNearPerfect(t *testing.T) {
	data := phaseData(30, 8, []int{1, 4}, 2)
	fitness, err := DistanceFitness(data, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, 8)
	for i := range all {
		all[i] = i
	}
	if got := scoreOne(fitness, all); got < 0.999 {
		t.Fatalf("full feature set correlation = %v", got)
	}
}

func TestDistanceFitnessInvalidSelection(t *testing.T) {
	data := phaseData(20, 6, []int{0}, 3)
	fitness, err := DistanceFitness(data, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if got := scoreOne(fitness, []int{99}); got != -1 {
		t.Fatalf("out-of-range selection scored %v, want -1", got)
	}
}

func TestDistanceFitnessNeedsRows(t *testing.T) {
	if _, err := DistanceFitness(stats.NewMatrix(2, 5), 1.0); err == nil {
		t.Fatal("two-row fitness accepted")
	}
}

func TestGAWithDistanceFitnessEndToEnd(t *testing.T) {
	noise := []int{1, 6, 11}
	data := phaseData(36, 14, noise, 4)
	fitness, err := DistanceFitness(data, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Run(14, fitness, Config{TargetCount: 3, Seed: 5, MaxGenerations: 30, Patience: 15})
	if err != nil {
		t.Fatal(err)
	}
	// In the rescaled-PCA space every retained component has equal
	// weight, so the best subset mixes structured and noise columns
	// (matching the full space's composition) — the GA must at least
	// beat both naive hand-picked baselines.
	structured := scoreOne(fitness, []int{0, 2, 3})
	allNoise := scoreOne(fitness, noise)
	if sel.Fitness < structured || sel.Fitness < allNoise {
		t.Fatalf("GA fitness %v below baselines (structured %v, noise %v); selected %v",
			sel.Fitness, structured, allNoise, sel.Selected)
	}
	if sel.Fitness < 0.6 {
		t.Fatalf("GA-selected subset correlation %v too low (selected %v)", sel.Fitness, sel.Selected)
	}
}

// The pooled fitness must stay within a fixed allocation budget per
// genome scored, in chunks of every size: the gather -> PCA -> rescale ->
// distance chain runs entirely on recycled buffers, so the steady state
// is sort.Slice's two allocations inside each genome's eigenpair sort.
// The ceiling of 4 per genome leaves headroom for an occasional
// GC-cleared pool (one fresh set of buffers, spread over the 100 runs)
// and catches any per-genome buffer that stops being reused. Under the
// race detector sync.Pool drops a quarter of its Puts on purpose, so
// every chunk that finds the pool empty builds fresh buffers, and the
// ceiling there is 25 per genome.
func TestDistanceFitnessAllocBudget(t *testing.T) {
	data := phaseData(40, 20, []int{1, 6, 11}, 9)
	fitness, err := DistanceFitness(data, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	genomes := [][]int{
		{0, 2, 3, 7},
		{1, 4, 9, 12, 15},
		{0, 5, 6, 11, 17, 19},
		{2, 3, 8, 13},
	}
	scores := make([]float64, len(genomes))
	budget := 4.0
	if RaceEnabled {
		budget = 25
	}
	for size := 1; size <= len(genomes); size++ {
		fitness(genomes[:size], scores) // warm the buffer pool
		avg := testing.AllocsPerRun(100, func() {
			fitness(genomes[:size], scores)
		})
		if perGenome := avg / float64(size); perGenome > budget {
			t.Fatalf("chunks of %d average %.1f allocs per genome, budget %.0f", size, perGenome, budget)
		}
	}
}
