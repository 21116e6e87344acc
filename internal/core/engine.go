package core

// The stage engine behind Run: each analysis stage (characterize, pca,
// scores, kmeans, prominent) declares its output as a serializable
// artifact with a content-addressed key (see artifacts.go), persisted
// through internal/fcache. The engine gives Run two properties the old
// monolith lacked:
//
//   - artifact reuse: with a cache configured, every stage looks up its
//     artifact first and computes only on a miss, under the cache's
//     singleflight, persisting what it computed. A rerun with the same
//     config recomputes nothing; a corrupt or stale artifact misses and
//     the stage recomputes — never fails. Without a cache every stage
//     computes;
//   - sharded characterization: with Config.Shard.Count > 1, the dominant
//     characterize stage is assembled from per-shard dataset artifacts
//     computed independently (CharacterizeShard / `phasechar -shard`).
//
// The load-bearing invariant: loading an artifact is bit-for-bit
// equivalent to recomputing it, so any mix of computed, resumed and
// merged stages yields a byte-identical Result at any worker count.

import (
	"encoding"
	"fmt"

	"repro/internal/bench"
	"repro/internal/fcache"
	"repro/internal/mica"
	"repro/internal/obs"
	"repro/internal/stats"
)

// stageArtifact is what the engine persists and restores per stage.
type stageArtifact interface {
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// engine carries one run's stage-execution state.
type engine struct {
	reg   *bench.Registry
	cfg   Config
	cache *fcache.Cache // nil when no cache directory is configured
	keys  *artifactKeys // nil iff cache is nil
	delta *deltaPlan    // non-nil iff an extend-dataset plan applies
	logf  func(format string, args ...any)
}

// newEngine opens the cache (when configured) and precomputes the
// artifact key chain. refs must be the run's sampled dataset. With
// incremental mode enabled it also resolves the extend-dataset plan
// against the cached baseline manifest (see incremental.go).
func newEngine(reg *bench.Registry, cfg Config, refs []IntervalRef, logf func(string, ...any)) (*engine, error) {
	cache, err := openCache(cfg)
	if err != nil {
		return nil, err
	}
	e := &engine{reg: reg, cfg: cfg, cache: cache, logf: logf}
	if cache != nil {
		e.keys = newArtifactKeys(reg, cfg, len(refs))
		if cfg.Incremental.Enabled && cfg.Shard.Count <= 1 {
			e.delta = e.planDelta()
			if e.delta == nil {
				cfg.Metrics.Add("engine.delta_inapplicable", 1)
			}
		}
	}
	return e, nil
}

// Key accessors tolerate cache-less runs: without a cache there is no
// key chain (e.keys is nil) and the zero Key is never used, because
// getOrCompute only touches keys when a cache is configured.

func (e *engine) pcaKey() fcache.Key {
	if e.keys == nil {
		return fcache.Key{}
	}
	return e.keys.pcaKey()
}

func (e *engine) scoresKey() fcache.Key {
	if e.keys == nil {
		return fcache.Key{}
	}
	return e.keys.scoresKey(e.cfg)
}

func (e *engine) clusterKey() fcache.Key {
	if e.keys == nil {
		return fcache.Key{}
	}
	return e.keys.clusterKey(e.cfg)
}

func (e *engine) summaryKey() fcache.Key {
	if e.keys == nil {
		return fcache.Key{}
	}
	return e.keys.summaryKey(e.cfg)
}

// markStage counts one stage completion in the engine counters; mode is
// "computed", "resumed" or "delta".
func (e *engine) markStage(name, mode string) {
	e.cfg.Metrics.Add("engine.stages_"+mode, 1)
	e.cfg.Metrics.Add("engine."+mode+"."+name, 1)
}

// getOrCompute fills art from its cache entry under key or, on a miss,
// runs compute, which must fill art. The compute runs under the cache's
// singleflight (fcache.GetOrCompute), which persists its result:
// concurrent service jobs — or processes sharing the cache directory —
// needing the same artifact elect one computer, and the rest read its
// entry. Without a cache it just computes. Returns whether art was
// loaded rather than computed.
func getOrCompute(cache *fcache.Cache, key fcache.Key, art stageArtifact, compute func() error) (bool, error) {
	if cache == nil {
		return false, compute()
	}
	for retried := false; ; retried = true {
		computed := false
		payload, _, err := cache.GetOrCompute(key, func() ([]byte, error) {
			if err := compute(); err != nil {
				return nil, err
			}
			computed = true
			return art.MarshalBinary()
		})
		switch {
		case computed:
			// An artifact that refused to encode only costs persistence;
			// it never fails the run.
			return false, nil
		case err != nil:
			return false, err
		case art.UnmarshalBinary(payload) == nil:
			return true, nil
		case retried:
			return false, fmt.Errorf("core: %s artifact undecodable after recompute", fcache.KindName(key.Kind))
		}
		// The entry passed the cache checksum but not the artifact
		// decoder (a schema change raced this run): discard it so it is
		// never trusted again, and compute it afresh.
		cache.Discard(key)
	}
}

// stage runs one persisted pipeline stage through getOrCompute: a
// cached artifact fills art and records a zero-cost resumed span;
// otherwise compute fills art.
func (e *engine) stage(name string, key fcache.Key, art stageArtifact, rows int, compute func() error) error {
	loaded, err := getOrCompute(e.cache, key, art, compute)
	if err != nil {
		return err
	}
	if !loaded {
		e.markStage(name, "computed")
		return nil
	}
	e.cfg.Metrics.StartSpan(name).SetRows(rows).SetResumed(true).End()
	e.markStage(name, "resumed")
	e.logf("%s: resumed from stage artifact", name)
	return nil
}

// shardPlan is one shard's slice of the sampled dataset.
type shardPlan struct {
	index, count int
	// benches lists the shard's registry benchmark indices.
	benches []int
	// refs are the shard's sampled rows (registry/sample order).
	refs []IntervalRef
	// work are refs' distinct intervals in first-appearance order: the
	// rows of the shard's artifact.
	work []IntervalRef
}

// planShards partitions the sampled refs into cfg.Shard.Count shards by
// registry position (benchmark i goes to shard i % count). The partition
// depends only on the registry order and the count, never on workers or
// cache state, so every process plans identically.
func (e *engine) planShards(refs []IntervalRef) []shardPlan {
	count := max(e.cfg.Shard.Count, 1)
	plans := make([]shardPlan, count)
	shardOf := make(map[*bench.Benchmark]int, e.reg.Len())
	for i, b := range e.reg.All() {
		shardOf[b] = i % count
		plans[i%count].benches = append(plans[i%count].benches, i)
	}
	for _, r := range refs {
		s := shardOf[r.Bench]
		plans[s].refs = append(plans[s].refs, r)
	}
	for i := range plans {
		plans[i].index, plans[i].count = i, count
		plans[i].work, _ = dedupRefs(plans[i].refs)
	}
	return plans
}

// loadOrComputeShard serves one shard from its artifact or, on a miss,
// characterizes it (see getOrCompute). Returns the artifact, whether it
// was loaded, and the vector-cache hits of a computed shard.
func (e *engine) loadOrComputeShard(p shardPlan) (*coveredShard, bool, int, error) {
	var key fcache.Key
	if e.keys != nil {
		key = e.keys.shardKey(p.index, p.count, p.benches, len(p.refs))
	}
	art := &coveredShard{work: p.work}
	hits := 0
	loaded, err := getOrCompute(e.cache, key, art, func() (err error) {
		hits, err = art.compute(e.cfg, e.cache)
		return err
	})
	if err != nil {
		return nil, false, 0, err
	}
	if loaded {
		e.cfg.Metrics.Add("engine.shards_resumed", 1)
	} else {
		e.cfg.Metrics.Add("engine.shards_computed", 1)
	}
	return art, loaded, hits, nil
}

// characterize runs the (possibly sharded) characterization stage and
// merges the shard artifacts into the run's Dataset.
func (e *engine) characterize(refs []IntervalRef) (*Dataset, error) {
	if len(refs) == 0 {
		return nil, fmt.Errorf("core: no intervals to characterize")
	}
	if e.delta != nil {
		ds, ok, err := e.characterizeDelta(refs)
		if err != nil {
			return nil, err
		}
		if ok {
			return ds, nil
		}
		// A baseline artifact could not be served: abandon the whole delta
		// plan (the analysis fast path depends on the same baseline) and
		// recompute cold — cache trouble recomputes, it never fails.
		e.delta = nil
		e.cfg.Metrics.Add("engine.delta_fallback.characterize", 1)
	}
	plans := e.planShards(refs)
	arts := make([]*coveredShard, len(plans))
	resumed := true
	var instructions uint64
	unique, cacheHits := 0, 0
	for i := range plans {
		art, loaded, hits, err := e.loadOrComputeShard(plans[i])
		if err != nil {
			return nil, err
		}
		if loaded {
			// Every interval the artifact holds was served from the cache.
			hits = len(art.work)
		}
		resumed = resumed && loaded
		cacheHits += hits
		unique += len(art.work)
		instructions += art.instructions
		arts[i] = art
	}
	if resumed {
		e.cfg.Metrics.StartSpan("characterize").SetRows(unique).SetResumed(true).End()
		e.logf("characterize: resumed %d shard artifact(s)", len(arts))
		e.markStage("characterize", "resumed")
	} else {
		e.markStage("characterize", "computed")
	}

	var mergeSpan *obs.Span // only recorded for merge runs
	if len(plans) > 1 {
		mergeSpan = e.cfg.Metrics.StartSpan("merge").SetRows(len(refs))
	}
	vecs := make(map[intervalKey][]float64, unique)
	for _, art := range arts {
		for i, r := range art.work {
			vecs[intervalKey{r.Bench, r.Index}] = art.rows[i]
		}
	}
	raw := stats.NewMatrix(len(refs), mica.NumMetrics)
	for i, r := range refs {
		copy(raw.Row(i), vecs[intervalKey{r.Bench, r.Index}])
	}
	mergeSpan.End()
	return &Dataset{
		Refs:            append([]IntervalRef(nil), refs...),
		Raw:             raw,
		UniqueIntervals: unique,
		Instructions:    instructions,
		CacheHits:       cacheHits,
	}, nil
}

// ShardInfo summarizes one CharacterizeShard invocation.
type ShardInfo struct {
	// Index / Count echo the shard coordinates.
	Index, Count int
	// Benchmarks is how many registry benchmarks the shard covers.
	Benchmarks int
	// Refs is the shard's sampled row count.
	Refs int
	// UniqueIntervals is how many distinct intervals the artifact holds.
	UniqueIntervals int
	// Instructions is the shard's characterized instruction total.
	Instructions uint64
	// Resumed reports that a valid artifact was already present and the
	// shard was not recomputed.
	Resumed bool
}

// CharacterizeShard characterizes exactly one shard of the sampled
// dataset and persists it as a shard artifact in the cache — the worker
// half of the shard→merge workflow (`phasechar -shard i/n`). A shard
// whose artifact is already present and valid is skipped. Requires
// cfg.CacheDir; cfg.Shard selects the shard.
func CharacterizeShard(reg *bench.Registry, cfg Config, logf func(string, ...any)) (*ShardInfo, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.CacheDir == "" {
		return nil, fmt.Errorf("core: shard characterization needs a cache directory to write the artifact to")
	}
	if reg.Len() == 0 {
		return nil, fmt.Errorf("core: empty benchmark registry")
	}
	count := cfg.Shard.Count
	if count < 1 {
		count = 1
	}
	if cfg.Shard.Index < 0 || cfg.Shard.Index >= count {
		return nil, fmt.Errorf("core: shard index %d outside [0,%d)", cfg.Shard.Index, count)
	}
	refs := SampleRefs(reg, cfg)
	eng, err := newEngine(reg, cfg, refs, logf)
	if err != nil {
		return nil, err
	}
	p := eng.planShards(refs)[cfg.Shard.Index]
	logf("shard %d/%d: %d benchmarks, %d sampled intervals",
		p.index, p.count, len(p.benches), len(p.refs))
	art, loaded, _, err := eng.loadOrComputeShard(p)
	if err != nil {
		return nil, err
	}
	if loaded {
		logf("shard %d/%d: artifact already present (%d unique intervals), nothing to do", p.index, p.count, art.uniqueCount())
	} else {
		logf("shard %d/%d: characterized %d unique intervals (%d instructions)",
			p.index, p.count, art.uniqueCount(), art.instructions)
	}
	return &ShardInfo{
		Index:           p.index,
		Count:           p.count,
		Benchmarks:      len(p.benches),
		Refs:            len(p.refs),
		UniqueIntervals: art.uniqueCount(),
		Instructions:    art.instructions,
		Resumed:         loaded,
	}, nil
}
