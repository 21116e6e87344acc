package ga

import (
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// perGenome is the Fitness that scores each genome of a chunk with
// score.
func perGenome(score func(selected []int) float64) Fitness {
	return func(genomes [][]int, scores []float64) {
		for i, g := range genomes {
			scores[i] = score(g)
		}
	}
}

// plantedFitness rewards overlap with a planted target subset.
func plantedFitness(target []int) Fitness {
	set := map[int]bool{}
	for _, g := range target {
		set[g] = true
	}
	return perGenome(func(selected []int) float64 {
		hits := 0
		for _, g := range selected {
			if set[g] {
				hits++
			}
		}
		return float64(hits) / float64(len(target))
	})
}

func TestRunFindsPlantedSubset(t *testing.T) {
	target := []int{3, 11, 17, 29, 41}
	sel, err := Run(50, plantedFitness(target), Config{TargetCount: 5, Seed: 1, MaxGenerations: 80, Patience: 40})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Fitness < 0.999 {
		t.Fatalf("GA found fitness %v, selected %v", sel.Fitness, sel.Selected)
	}
	if len(sel.Selected) != 5 {
		t.Fatalf("selected %d genes, want 5", len(sel.Selected))
	}
	for i, g := range sel.Selected {
		if g != target[i] {
			t.Fatalf("selected %v, want %v", sel.Selected, target)
		}
	}
}

func TestRunRespectsCardinality(t *testing.T) {
	fitness := perGenome(func(sel []int) float64 { return float64(len(sel)) })
	for _, count := range []int{1, 7, 20} {
		sel, err := Run(30, fitness, Config{TargetCount: count, Seed: 2, MaxGenerations: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(sel.Selected) != count {
			t.Fatalf("cardinality %d not respected: got %d", count, len(sel.Selected))
		}
		seen := map[int]bool{}
		for _, g := range sel.Selected {
			if g < 0 || g >= 30 {
				t.Fatalf("gene %d out of range", g)
			}
			if seen[g] {
				t.Fatalf("duplicate gene %d", g)
			}
			seen[g] = true
		}
		if !sort.IntsAreSorted(sel.Selected) {
			t.Fatalf("selection not sorted: %v", sel.Selected)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	f := plantedFitness([]int{2, 4, 8})
	a, err := Run(20, f, Config{TargetCount: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(20, f, Config{TargetCount: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fitness != b.Fitness || len(a.Selected) != len(b.Selected) {
		t.Fatal("same seed produced different results")
	}
	for i := range a.Selected {
		if a.Selected[i] != b.Selected[i] {
			t.Fatal("same seed produced different selections")
		}
	}
}

func TestRunValidation(t *testing.T) {
	f := plantedFitness([]int{0})
	if _, err := Run(0, f, Config{TargetCount: 1}); err == nil {
		t.Fatal("zero features accepted")
	}
	if _, err := Run(10, nil, Config{TargetCount: 1}); err == nil {
		t.Fatal("nil fitness accepted")
	}
	if _, err := Run(10, f, Config{TargetCount: 0}); err == nil {
		t.Fatal("zero cardinality accepted")
	}
	if _, err := Run(10, f, Config{TargetCount: 11}); err == nil {
		t.Fatal("cardinality beyond feature count accepted")
	}
}

func TestRunFullCardinality(t *testing.T) {
	// Selecting all features leaves nothing to mutate; must not hang.
	sel, err := Run(6, perGenome(func([]int) float64 { return 1 }), Config{TargetCount: 6, Seed: 1, MaxGenerations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Selected) != 6 {
		t.Fatalf("selected %v", sel.Selected)
	}
}

func TestEvaluationsCounted(t *testing.T) {
	// Fitness functions run concurrently when Workers > 1, so the
	// counter must be atomic (the Fitness contract requires concurrent
	// safety).
	var calls atomic.Int64
	f := perGenome(func(sel []int) float64 { calls.Add(1); return 0 })
	for _, workers := range []int{1, 4} {
		calls.Store(0)
		sel, err := Run(12, f, Config{TargetCount: 3, Seed: 4, MaxGenerations: 6, Patience: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if int64(sel.Evaluations) != calls.Load() {
			t.Fatalf("workers=%d: Evaluations = %d, fitness called %d times", workers, sel.Evaluations, calls.Load())
		}
		if calls.Load() == 0 {
			t.Fatal("fitness never called")
		}
	}
}

// TestRunWorkerCountInvariance is the tentpole contract: the evolved
// selection — genes, fitness, generation count and even the number of
// distinct evaluations — must be identical for any Config.Workers, because
// breeding is serial and each generation's uncached genomes are deduped
// before the concurrent scoring batch.
func TestRunWorkerCountInvariance(t *testing.T) {
	f := plantedFitness([]int{2, 5, 11, 17})
	ref, err := Run(30, f, Config{TargetCount: 4, Seed: 6, MaxGenerations: 20, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := Run(30, f, Config{TargetCount: 4, Seed: 6, MaxGenerations: 20, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.Fitness != ref.Fitness || got.Generations != ref.Generations || got.Evaluations != ref.Evaluations {
			t.Fatalf("workers=%d diverged: %+v vs %+v", workers, got, ref)
		}
		for i := range ref.Selected {
			if got.Selected[i] != ref.Selected[i] {
				t.Fatalf("workers=%d selected %v, workers=1 selected %v", workers, got.Selected, ref.Selected)
			}
		}
	}
}

func TestSweepWorkerCountInvariance(t *testing.T) {
	f := plantedFitness([]int{0, 1, 2, 3, 4, 5})
	counts := []int{2, 4, 6}
	ref, err := Sweep(16, f, counts, Config{Seed: 5, MaxGenerations: 15, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Sweep(16, f, counts, Config{Seed: 5, MaxGenerations: 15, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if got[i].Count != ref[i].Count || got[i].Selection.Fitness != ref[i].Selection.Fitness {
			t.Fatalf("sweep slot %d diverged across worker counts", i)
		}
		for j := range ref[i].Selection.Selected {
			if got[i].Selection.Selected[j] != ref[i].Selection.Selected[j] {
				t.Fatalf("sweep slot %d selected different genes across worker counts", i)
			}
		}
	}
}

// TestSeedZeroValid pins the Seed == 0 semantics at the ga layer: a valid,
// deterministic seed distinct from seed 1.
func TestSeedZeroValid(t *testing.T) {
	f := plantedFitness([]int{1, 3, 5})
	a, err := Run(40, f, Config{TargetCount: 3, Seed: 0, MaxGenerations: 3, Patience: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(40, f, Config{TargetCount: 3, Seed: 0, MaxGenerations: 3, Patience: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fitness != b.Fitness || a.Evaluations != b.Evaluations {
		t.Fatal("seed 0 not deterministic")
	}
	c, err := Run(40, f, Config{TargetCount: 3, Seed: 1, MaxGenerations: 3, Patience: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Evaluations == c.Evaluations && a.Fitness == c.Fitness && equalInts(a.Selected, c.Selected) {
		t.Fatal("seed 0 and seed 1 ran identical searches; 0 looks like a sentinel")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMutatePreservesInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		genes := randomSubset(20, 6, rng)
		mutate(genes, 20, rng)
		seen := map[int]bool{}
		for _, g := range genes {
			if g < 0 || g >= 20 {
				t.Fatalf("mutated gene %d out of range", g)
			}
			if seen[g] {
				t.Fatalf("mutation created duplicate: %v", genes)
			}
			seen[g] = true
		}
		if len(genes) != 6 {
			t.Fatalf("mutation changed cardinality: %v", genes)
		}
	}
}

func TestCrossoverPreservesInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	check := func(a8, b8 uint8) bool {
		n := 24
		k := 5
		a := randomSubset(n, k, rng)
		b := randomSubset(n, k, rng)
		child := crossover(a, b, k, n, rng)
		if len(child) != k {
			return false
		}
		seen := map[int]bool{}
		for _, g := range child {
			if g < 0 || g >= n || seen[g] {
				return false
			}
			seen[g] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossoverKeepsSharedGenes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := []int{1, 2, 3, 4}
	b := []int{1, 2, 9, 10}
	for trial := 0; trial < 100; trial++ {
		child := crossover(a, b, 4, 20, rng)
		has1, has2 := false, false
		for _, g := range child {
			if g == 1 {
				has1 = true
			}
			if g == 2 {
				has2 = true
			}
		}
		if !has1 || !has2 {
			t.Fatalf("crossover dropped shared genes: %v", child)
		}
	}
}

func TestGenomeKeyDistinguishes(t *testing.T) {
	if genomeKey([]int{1, 2}) == genomeKey([]int{1, 3}) {
		t.Fatal("genome keys collide")
	}
	if genomeKey([]int{1, 2}) != genomeKey([]int{1, 2}) {
		t.Fatal("genome key not deterministic")
	}
}

func TestSweepShape(t *testing.T) {
	f := plantedFitness([]int{0, 1, 2, 3, 4, 5, 6, 7})
	counts := []int{1, 4, 8}
	results, err := Sweep(16, f, counts, Config{Seed: 5, MaxGenerations: 40, Patience: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(counts) {
		t.Fatalf("sweep returned %d results", len(results))
	}
	for i, r := range results {
		if r.Count != counts[i] {
			t.Fatalf("sweep order wrong: %v", r.Count)
		}
		if len(r.Selection.Selected) != counts[i] {
			t.Fatalf("sweep cardinality wrong at %d", counts[i])
		}
	}
	// Bigger budgets can only capture more of the planted set.
	if results[2].Selection.Fitness < results[0].Selection.Fitness {
		t.Fatalf("sweep fitness decreased with budget: %v", results)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{TargetCount: 3}
	c, err := cfg.withDefaults(10)
	if err != nil {
		t.Fatal(err)
	}
	if c.Populations == 0 || c.PopulationSize == 0 || c.MaxGenerations == 0 || c.Patience == 0 ||
		c.MutationRate == 0 || c.MigrationInterval == 0 || c.Elite == 0 {
		t.Fatalf("defaults not filled: %+v", c)
	}
	if _, err := (&Config{TargetCount: -1}).withDefaults(10); err == nil {
		t.Fatal("negative target accepted")
	}
}
