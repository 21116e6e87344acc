package ga

import (
	"math/rand"
	"testing"

	"repro/internal/stats"
)

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
	spanning := fitness([]int{0, 6})
	oneFactor := fitness([]int{0, 1})
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
	if got := fitness(all); got < 0.999 {
		t.Fatalf("full feature set correlation = %v", got)
	}
}

func TestDistanceFitnessInvalidSelection(t *testing.T) {
	data := phaseData(20, 6, []int{0}, 3)
	fitness, err := DistanceFitness(data, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if got := fitness([]int{99}); got != -1 {
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
	structured := fitness([]int{0, 2, 3})
	allNoise := fitness(noise)
	if sel.Fitness < structured || sel.Fitness < allNoise {
		t.Fatalf("GA fitness %v below baselines (structured %v, noise %v); selected %v",
			sel.Fitness, structured, allNoise, sel.Selected)
	}
	if sel.Fitness < 0.6 {
		t.Fatalf("GA-selected subset correlation %v too low (selected %v)", sel.Fitness, sel.Selected)
	}
}

// The pooled fitness must stay within a fixed allocation budget per
// evaluation: the gather -> PCA -> rescale -> distance chain runs
// entirely on recycled buffers, so the steady state is sort.Slice's two
// allocations inside the eigenpair sort. The ceiling leaves headroom for
// an occasional GC-cleared pool (one fresh set of buffers, ~20
// allocations, spread over the 100 runs) and catches any per-evaluation
// buffer that stops being reused. Under the race detector sync.Pool
// drops a quarter of its Puts on purpose, so every evaluation that finds
// the pool empty builds fresh buffers (about 11 allocations per
// evaluation on average), and the ceiling there is 25.
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
	for _, g := range genomes { // warm the workspace pool
		fitness(g)
	}
	i := 0
	avg := testing.AllocsPerRun(100, func() {
		fitness(genomes[i%len(genomes)])
		i++
	})
	budget := 4.0
	if RaceEnabled {
		budget = 25
	}
	if avg > budget {
		t.Fatalf("fitness evaluation averages %.1f allocs, budget %.0f", avg, budget)
	}
}
