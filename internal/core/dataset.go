package core

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/fcache"
	"repro/internal/isa"
	"repro/internal/mica"
	"repro/internal/par"
	"repro/internal/stats"
	"repro/internal/trace"
)

// IntervalRef identifies one instruction interval of one benchmark.
type IntervalRef struct {
	// Bench is the benchmark the interval belongs to.
	Bench *bench.Benchmark
	// Index is the interval's position in the benchmark's execution.
	Index int
	// Total is the benchmark's total (scaled) interval count.
	Total int
}

// PhaseName returns the name of the scheduled phase the interval executes.
func (r IntervalRef) PhaseName() string {
	return r.Bench.BehaviorAt(r.Index, r.Total).Name
}

// String renders "suite/bench#index".
func (r IntervalRef) String() string {
	return fmt.Sprintf("%s#%d", r.Bench.ID(), r.Index)
}

// Dataset is the sampled, characterized interval population: one row of 69
// MICA characteristics per sampled interval (rows may repeat an interval —
// sampling is with replacement, exactly as in the paper).
type Dataset struct {
	// Refs identifies each row's interval.
	Refs []IntervalRef
	// Raw is the len(Refs) x 69 characteristic matrix.
	Raw *stats.Matrix
	// UniqueIntervals is how many distinct intervals were characterized.
	UniqueIntervals int
	// Instructions is the total number of synthetic instructions the
	// characterization accounts for. Intervals served from the vector
	// cache contribute their interval length without being regenerated,
	// so the total is identical whether a run was cold or cache-warm.
	Instructions uint64
	// CacheHits is how many unique intervals were served from the cache,
	// by their own vector entries or by a whole dataset artifact (0
	// without a cache).
	CacheHits int
}

// VectorKey builds the interval-vector cache key for one interval: the
// behaviour's full content hash, the interval seed and length, plus the
// kernel's schema version. Everything that can change a single generated
// or measured bit is in the key, so a hit is exactly equivalent to
// regenerating.
func VectorKey(beh *trace.PhaseBehavior, seed uint64, length int) fcache.Key {
	return fcache.Key{
		Kind:     fcache.KindVector,
		Version:  mica.SchemaVersion,
		Behavior: beh.BehaviorHash(),
		Seed:     seed,
		Length:   int64(length),
	}
}

// vectorKey is VectorKey for interval r. The runs that read vectors and
// the coordinator that stores shipped ones both key through it, so they
// cannot drift apart.
func vectorKey(r IntervalRef, length int) fcache.Key {
	return VectorKey(r.Bench.BehaviorAt(r.Index, r.Total), r.Bench.IntervalSeed(r.Index), length)
}

// SampleRefs draws the per-benchmark interval sample. With
// cfg.SampleByBenchmark (the paper's design) every benchmark contributes
// exactly cfg.SamplesPerBenchmark rows, drawn with replacement from its
// intervals; otherwise every interval of every benchmark appears exactly
// once (the section 2.4 ablation).
func SampleRefs(reg *bench.Registry, cfg Config) []IntervalRef {
	var refs []IntervalRef
	for _, b := range reg.All() {
		total := b.ScaledIntervals(cfg.MaxIntervalsPerBenchmark)
		if cfg.SampleByBenchmark {
			rng := trace.NewRNG(uint64(cfg.Seed)*0x9e37 + trace.HashString(b.ID()))
			for s := 0; s < cfg.SamplesPerBenchmark; s++ {
				refs = append(refs, IntervalRef{Bench: b, Index: rng.Intn(total), Total: total})
			}
		} else {
			for i := 0; i < total; i++ {
				refs = append(refs, IntervalRef{Bench: b, Index: i, Total: total})
			}
		}
	}
	return refs
}

// Characterize generates and characterizes the sampled intervals, sharing
// work between duplicate samples. It is the pipeline's step 1+2 (paper
// sections 2.3–2.4) and by far its most expensive stage; work is spread
// over cfg.Workers goroutines. With cfg.CacheDir set, the unique vectors
// are one dataset artifact (datasetKey): a repeat over the same refs
// loads it and reports every unique interval as a cache hit.
func Characterize(refs []IntervalRef, cfg Config) (*Dataset, error) {
	if len(refs) == 0 {
		return nil, fmt.Errorf("core: no intervals to characterize")
	}
	cache, err := openCache(cfg)
	if err != nil {
		return nil, err
	}
	work, slot := dedupRefs(refs)
	art := &coveredShard{work: work}
	hits := 0
	loaded, err := getOrCompute(cache, datasetKey(refs, cfg), art, func() (err error) {
		hits, err = art.compute(cfg, cache)
		return err
	})
	if err != nil {
		return nil, err
	}
	if loaded {
		hits = len(work)
	}
	return art.dataset(refs, slot, hits), nil
}

// dataset lays art's rows, refs' distinct intervals, out as the Dataset
// of refs: row i is art's row slot[i]. hits is how many of the distinct
// intervals the cache served.
func (art *coveredShard) dataset(refs []IntervalRef, slot []int, hits int) *Dataset {
	raw := stats.NewMatrix(len(refs), mica.NumMetrics)
	for i, s := range slot {
		copy(raw.Row(i), art.rows[s])
	}
	return &Dataset{
		Refs:            append([]IntervalRef(nil), refs...),
		Raw:             raw,
		UniqueIntervals: len(art.work),
		Instructions:    art.instructions,
		CacheHits:       hits,
	}
}

// openCache opens cfg's cache with cfg's collector installed, or returns
// nil when no cache directory is configured.
func openCache(cfg Config) (*fcache.Cache, error) {
	if cfg.CacheDir == "" {
		return nil, nil
	}
	cache, err := fcache.Open(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	cache.SetMetrics(cfg.Metrics)
	return cache, nil
}

// intervalKey identifies one interval of one benchmark. Keying on the
// benchmark pointer costs nothing, where Benchmark.ID builds a string.
type intervalKey struct {
	b     *bench.Benchmark
	index int
}

// dedupRefs returns refs' distinct intervals in first-appearance order
// and, per ref, the position of its interval in that list.
func dedupRefs(refs []IntervalRef) (work []IntervalRef, slot []int) {
	pos := make(map[intervalKey]int, len(refs))
	slot = make([]int, len(refs))
	for i, r := range refs {
		k := intervalKey{r.Bench, r.Index}
		s, ok := pos[k]
		if !ok {
			s = len(work)
			pos[k] = s
			work = append(work, r)
		}
		slot[i] = s
	}
	return work, slot
}

// characterizeUnique is the characterization kernel behind every
// dataset, shard and timeline: it generates and measures the given
// already-deduplicated intervals under a span named stage and returns
// one vector per interval, the instruction total, and the vector-cache
// hit count.
func characterizeUnique(stage string, work []IntervalRef, cfg Config, cache *fcache.Cache) ([][]float64, uint64, int, error) {
	span := cfg.Metrics.StartSpan(stage).SetRows(len(work)).SetWorkers(par.Workers(cfg.Workers))
	defer span.End()

	// Fan the unique intervals out over the par worker pool. Analyzers
	// are heavy, so each worker keeps one (plus a reusable generation
	// batch buffer) and resets it per interval; every interval writes
	// only its own vectors/errs slot and the per-worker instruction and
	// cache-hit counts are integers, so the dataset is identical for any
	// worker count — and, because a cached vector is the bit-exact stored
	// output of the same kernel, for any cache state.
	workers := par.Workers(cfg.Workers)
	vectors := make([][]float64, len(work))
	errs := make([]error, len(work))
	analyzers := make([]*mica.Analyzer, workers)
	buffers := make([][]isa.Instruction, workers)
	instrParts := make([]uint64, workers)
	hitParts := make([]int, workers)
	par.ForWorker(workers, len(work), func(w, i int) {
		r := work[i]
		var key fcache.Key
		if cache != nil {
			key = vectorKey(r, cfg.IntervalLength)
			if v, ok := cache.GetVector(key, mica.NumMetrics); ok {
				vectors[i] = v
				instrParts[w] += uint64(cfg.IntervalLength)
				hitParts[w]++
				return
			}
		}
		analyzer := analyzers[w]
		if analyzer == nil {
			analyzer = mica.NewAnalyzer()
			analyzers[w] = analyzer
			buffers[w] = make([]isa.Instruction, trace.DefaultBatchSize)
		}
		analyzer.Reset()
		err := trace.GenerateIntervalBatches(r.Bench.BehaviorAt(r.Index, r.Total), r.Bench.IntervalSeed(r.Index),
			cfg.IntervalLength, buffers[w], analyzer.RecordBatch)
		if err != nil {
			errs[i] = fmt.Errorf("core: interval %s: %w", r, err)
			return
		}
		vectors[i] = analyzer.Vector()
		instrParts[w] += analyzer.Total()
		if cache != nil {
			// Best-effort: a failed write only costs regeneration later.
			_ = cache.PutVector(key, vectors[i])
		}
	})
	if err := par.FirstError(errs); err != nil {
		return nil, 0, 0, err
	}
	var instructions uint64
	var cacheHits int
	for w := range instrParts {
		instructions += instrParts[w]
		cacheHits += hitParts[w]
	}
	return vectors, instructions, cacheHits, nil
}
