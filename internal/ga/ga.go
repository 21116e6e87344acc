// Package ga implements the genetic algorithm the paper uses to select a
// small set of key microarchitecture-independent characteristics: genomes
// are fixed-cardinality subsets of the 69 characteristics, evolved with
// mutation, crossover and migration across multiple populations; the
// fitness of a subset is the Pearson correlation between inter-phase
// distances in the reduced space and in the full space (both measured in
// rescaled-PCA coordinates).
//
// Fitness evaluation — the cost center of the search — is parallel and
// worker-count deterministic: every generation's offspring are bred
// serially from one rng (breeding never consumes fitness values of the
// offspring being bred), then the generation's distinct uncached genomes
// are evaluated concurrently and memoized in one batch. The evolved
// Selection, including its Evaluations count, is byte-identical for any
// Config.Workers.
package ga

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/stats"
)

// Fitness scores a chunk of candidate subsets of feature indices:
// scores[i] receives the score of genomes[i]; higher is better. Run hands
// it chunks of up to stats.Lanes distinct genomes, and a genome's score
// must not depend on the rest of its chunk, so the search is the same for
// any chunking. When Config.Workers permits more than one worker, chunks
// are scored concurrently, so a Fitness must be safe for concurrent use
// (pure functions of their input, like DistanceFitness, are).
type Fitness func(genomes [][]int, scores []float64)

// Config tunes the evolutionary search.
type Config struct {
	// TargetCount is the exact number of features every genome selects.
	TargetCount int
	// Populations is the number of independent populations (default 4).
	Populations int
	// PopulationSize is individuals per population (default 24).
	PopulationSize int
	// MaxGenerations bounds the search (default 60).
	MaxGenerations int
	// Patience stops the search after this many generations without
	// global improvement (default 12).
	Patience int
	// MutationRate is the per-offspring probability of a swap mutation
	// (default 0.3).
	MutationRate float64
	// MigrationInterval is how often (in generations) the populations
	// exchange their best individuals (default 5).
	MigrationInterval int
	// Elite is how many top individuals survive unchanged per
	// population (default 2).
	Elite int
	// Seed makes the search deterministic. Any value — including 0 — is
	// a valid, distinct seed; Sweep derives per-cardinality sub-seeds
	// from it with a SplitMix64-style hash. (core.Config.Validate treats
	// a zero Config.Seed as "inherit the pipeline seed" before the value
	// reaches this package; that inheritance is documented there.)
	Seed int64
	// Workers bounds fitness-evaluation parallelism; values < 1 mean
	// GOMAXPROCS. The search result is identical for any worker count.
	Workers int
	// Metrics, when non-nil, receives search counters (ga.runs,
	// ga.generations, ga.evaluations). Metrics never influence the
	// search, so determinism is unaffected.
	Metrics *obs.Metrics `json:"-"`
}

func (c *Config) withDefaults(numFeatures int) (Config, error) {
	out := *c
	if out.TargetCount < 1 || out.TargetCount > numFeatures {
		return out, fmt.Errorf("ga: target count %d out of [1,%d]", out.TargetCount, numFeatures)
	}
	if out.Populations <= 0 {
		out.Populations = 4
	}
	if out.PopulationSize <= 0 {
		out.PopulationSize = 24
	}
	if out.MaxGenerations <= 0 {
		out.MaxGenerations = 60
	}
	if out.Patience <= 0 {
		out.Patience = 12
	}
	if out.MutationRate <= 0 {
		out.MutationRate = 0.3
	}
	if out.MigrationInterval <= 0 {
		out.MigrationInterval = 5
	}
	if out.Elite <= 0 {
		out.Elite = 2
	}
	if out.Elite > out.PopulationSize/2 {
		out.Elite = out.PopulationSize / 2
	}
	out.Workers = par.Workers(out.Workers)
	return out, nil
}

// Selection is the result of a search.
type Selection struct {
	// Selected are the chosen feature indices, sorted ascending.
	Selected []int
	// Fitness is the score of the selection.
	Fitness float64
	// Generations is how many generations were evolved.
	Generations int
	// Evaluations counts distinct fitness evaluations performed.
	Evaluations int
}

type individual struct {
	genes   []int // sorted feature indices, exactly TargetCount of them
	fitness float64
}

func genomeKey(genes []int) string {
	b := make([]byte, 0, len(genes)*2)
	for _, g := range genes {
		b = append(b, byte(g), byte(g>>8))
	}
	return string(b)
}

// memo caches genome fitness and evaluates batches of genomes. The cache
// needs no lock: Evaluate dedupes the batch serially, fans out fitness
// calls only for distinct uncached genomes (each chunk writing its own
// slots), and stores the results serially — which also makes the
// evaluation count deterministic, where a racy per-lookup cache could
// score one genome twice under contention.
type memo struct {
	fitness Fitness
	workers int
	cache   map[string]float64
	evals   int
}

// Evaluate returns the fitness of each genome in genes, scoring uncached
// distinct genomes concurrently and memoizing them in first-appearance
// order. Each task scores a chunk of up to stats.Lanes consecutive
// genomes; chunks shrink when the batch is too small to give every worker
// full ones, so no worker sits idle.
func (m *memo) Evaluate(genes [][]int) []float64 {
	var todoKeys []string
	var todoGenes [][]int
	pending := map[string]bool{}
	for _, g := range genes {
		key := genomeKey(g)
		if _, ok := m.cache[key]; ok || pending[key] {
			continue
		}
		pending[key] = true
		todoKeys = append(todoKeys, key)
		todoGenes = append(todoGenes, g)
	}
	vals := make([]float64, len(todoGenes))
	size := min(stats.Lanes, max(1, (len(todoGenes)+m.workers-1)/m.workers))
	par.For(m.workers, (len(todoGenes)+size-1)/size, func(c int) {
		lo, hi := c*size, min((c+1)*size, len(todoGenes))
		m.fitness(todoGenes[lo:hi], vals[lo:hi])
	})
	for i, key := range todoKeys {
		m.cache[key] = vals[i]
		m.evals++
	}
	out := make([]float64, len(genes))
	for i, g := range genes {
		out[i] = m.cache[genomeKey(g)]
	}
	return out
}

// Run evolves feature subsets of size cfg.TargetCount drawn from
// [0, numFeatures) to maximize fitness.
func Run(numFeatures int, fitness Fitness, cfg Config) (Selection, error) {
	if numFeatures < 1 {
		return Selection{}, fmt.Errorf("ga: no features to select from")
	}
	if fitness == nil {
		return Selection{}, fmt.Errorf("ga: nil fitness function")
	}
	c, err := cfg.withDefaults(numFeatures)
	if err != nil {
		return Selection{}, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	mm := &memo{fitness: fitness, workers: c.Workers, cache: map[string]float64{}}

	// Initialize populations with random subsets: breed every genome
	// first (one rng, fixed order), then score them in one batch.
	pops := make([][]individual, c.Populations)
	var initGenes [][]int
	for p := range pops {
		pops[p] = make([]individual, c.PopulationSize)
		for i := range pops[p] {
			genes := randomSubset(numFeatures, c.TargetCount, rng)
			pops[p][i] = individual{genes: genes}
			initGenes = append(initGenes, genes)
		}
	}
	initFit := mm.Evaluate(initGenes)
	for p := range pops {
		for i := range pops[p] {
			pops[p][i].fitness = initFit[p*c.PopulationSize+i]
		}
		sortPop(pops[p])
	}

	best := pops[0][0]
	for _, pop := range pops {
		if pop[0].fitness > best.fitness {
			best = pop[0]
		}
	}

	stale := 0
	gen := 0
	for ; gen < c.MaxGenerations && stale < c.Patience; gen++ {
		// Breed all populations' offspring serially (rng order is the
		// same as a fully serial run: selection reads only the previous
		// generation's fitness), then evaluate the generation's fresh
		// genomes in one concurrent batch.
		nexts := make([][]individual, len(pops))
		var freshGenes [][]int
		for p := range pops {
			next, fresh := breed(pops[p], numFeatures, c, rng)
			nexts[p] = next
			freshGenes = append(freshGenes, fresh...)
		}
		freshFit := mm.Evaluate(freshGenes)

		improved := false
		fi := 0
		for p := range pops {
			next := nexts[p]
			for i := c.Elite; i < len(next); i++ {
				next[i].fitness = freshFit[fi]
				fi++
			}
			sortPop(next)
			pops[p] = next
			if next[0].fitness > best.fitness {
				best = next[0]
				improved = true
			}
		}
		// Migration: ring-exchange of the best individuals.
		if (gen+1)%c.MigrationInterval == 0 && len(pops) > 1 {
			for p := range pops {
				src := pops[p][0]
				dst := pops[(p+1)%len(pops)]
				dst[len(dst)-1] = individual{genes: append([]int(nil), src.genes...), fitness: src.fitness}
				sortPop(dst)
			}
		}
		if improved {
			stale = 0
		} else {
			stale++
		}
	}

	sel := Selection{
		Selected:    append([]int(nil), best.genes...),
		Fitness:     best.fitness,
		Generations: gen,
		Evaluations: mm.evals,
	}
	sort.Ints(sel.Selected)
	c.Metrics.Add("ga.runs", 1)
	c.Metrics.Add("ga.generations", int64(gen))
	c.Metrics.Add("ga.evaluations", int64(mm.evals))
	return sel, nil
}

func sortPop(pop []individual) {
	sort.SliceStable(pop, func(a, b int) bool { return pop[a].fitness > pop[b].fitness })
}

// breed builds the next generation of one population — elites first, then
// tournament/crossover/mutation offspring — without scoring it. The genes
// of the non-elite offspring are returned for batch evaluation.
func breed(pop []individual, numFeatures int, c Config, rng *rand.Rand) ([]individual, [][]int) {
	next := make([]individual, 0, len(pop))
	// Elitism: fitness already known.
	for i := 0; i < c.Elite; i++ {
		next = append(next, pop[i])
	}
	fresh := make([][]int, 0, len(pop)-c.Elite)
	for len(next) < len(pop) {
		a := tournament(pop, rng)
		b := tournament(pop, rng)
		genes := crossover(a.genes, b.genes, c.TargetCount, numFeatures, rng)
		if rng.Float64() < c.MutationRate {
			mutate(genes, numFeatures, rng)
		}
		sort.Ints(genes)
		next = append(next, individual{genes: genes})
		fresh = append(fresh, genes)
	}
	return next, fresh
}

func tournament(pop []individual, rng *rand.Rand) individual {
	const size = 3
	best := pop[rng.Intn(len(pop))]
	for i := 1; i < size; i++ {
		c := pop[rng.Intn(len(pop))]
		if c.fitness > best.fitness {
			best = c
		}
	}
	return best
}

// crossover unions the parents' genes and samples target genes from the
// union, favouring genes present in both parents.
func crossover(a, b []int, target, numFeatures int, rng *rand.Rand) []int {
	inBoth := make([]int, 0, target)
	inOne := make([]int, 0, 2*target)
	seenA := make(map[int]bool, len(a))
	for _, g := range a {
		seenA[g] = true
	}
	seenB := make(map[int]bool, len(b))
	for _, g := range b {
		seenB[g] = true
		if seenA[g] {
			inBoth = append(inBoth, g)
		} else {
			inOne = append(inOne, g)
		}
	}
	for _, g := range a {
		if !seenB[g] {
			inOne = append(inOne, g)
		}
	}
	genes := make([]int, 0, target)
	genes = append(genes, inBoth...)
	rng.Shuffle(len(inOne), func(i, j int) { inOne[i], inOne[j] = inOne[j], inOne[i] })
	for _, g := range inOne {
		if len(genes) >= target {
			break
		}
		genes = append(genes, g)
	}
	// Pad with random unused features if the union was too small.
	used := make(map[int]bool, len(genes))
	for _, g := range genes {
		used[g] = true
	}
	for len(genes) < target {
		g := rng.Intn(numFeatures)
		if !used[g] {
			used[g] = true
			genes = append(genes, g)
		}
	}
	return genes[:target]
}

// mutate swaps one selected gene for an unselected one, preserving
// cardinality.
func mutate(genes []int, numFeatures int, rng *rand.Rand) {
	used := make(map[int]bool, len(genes))
	for _, g := range genes {
		used[g] = true
	}
	if len(genes) == numFeatures {
		return // nothing outside the genome to swap in
	}
	var candidate int
	for {
		candidate = rng.Intn(numFeatures)
		if !used[candidate] {
			break
		}
	}
	genes[rng.Intn(len(genes))] = candidate
}

func randomSubset(n, k int, rng *rand.Rand) []int {
	perm := rng.Perm(n)
	genes := append([]int(nil), perm[:k]...)
	sort.Ints(genes)
	return genes
}
