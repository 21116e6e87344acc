package core

// Shard entry points: characterizing one shard of the sampled dataset
// outside the run that analyzes it. A worker — `phasechar -shard i/n
// shard` sharing the run's cache directory, or a shardnet server across
// a machine boundary — characterizes its shard through the interval-
// vector tier and encodes the shard artifact for the wire (EncodeShard);
// a networked coordinator verifies the shipped bytes against its own
// registry and configuration and stores the verified rows as interval
// vectors (PutShardArtifact). Either way the vectors land where an
// ordinary cached Run reads them, so a run after any shard fleet takes
// the one characterize path — and therefore exports the one
// byte-identical result.

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/par"
)

// ShardArtifactVersion is the schema version of encoded shard artifacts
// (the combined measurement-kernel + engine version). Both ends of a
// shard RPC must agree on it; a mismatch means the two binaries would
// not produce bit-identical vectors and the transfer must be refused.
func ShardArtifactVersion() uint32 { return artifactVersion() }

// DatasetHash fingerprints the full characterization input for (reg,
// cfg): every sampling parameter and every benchmark's content hash.
// Two processes with equal hashes plan identical shards and produce
// bit-identical shard artifacts, so the hash is exchanged on every
// shard RPC to detect registry or configuration divergence.
func DatasetHash(reg *bench.Registry, cfg Config) (uint64, error) {
	cfg.CacheDir = ""
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	return newArtifactKeys(reg, cfg, 0).dataset, nil
}

// ShardInfo summarizes one EncodeShard or PutShardArtifact call.
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
	// Resumed reports that every interval vector of the shard was
	// already cached, so nothing was characterized.
	Resumed bool
}

// shardPlan is one shard's slice of the sampled dataset.
type shardPlan struct {
	index, count int
	// benches and refs count the shard's registry benchmarks and
	// sampled rows.
	benches, refs int
	// work are the shard's distinct intervals in first-appearance order:
	// the rows of its artifact.
	work []IntervalRef
}

// planShard validates cfg and the shard coordinates and plans shard
// index of count: registry benchmark i belongs to shard i % count. The
// partition depends only on the registry order and the count, never on
// workers or cache state, so every process plans identically, and all
// sampled rows of one benchmark land in one shard.
func planShard(reg *bench.Registry, cfg *Config, index, count int) (shardPlan, error) {
	if err := cfg.Validate(); err != nil {
		return shardPlan{}, err
	}
	if index < 0 || index >= count {
		return shardPlan{}, fmt.Errorf("core: shard index %d outside [0,%d)", index, count)
	}
	if reg.Len() == 0 {
		return shardPlan{}, fmt.Errorf("core: empty benchmark registry")
	}
	p := shardPlan{index: index, count: count}
	member := make(map[*bench.Benchmark]bool)
	for i, b := range reg.All() {
		if i%count == index {
			member[b] = true
		}
	}
	var refs []IntervalRef
	for _, r := range SampleRefs(reg, *cfg) {
		if member[r.Bench] {
			refs = append(refs, r)
		}
	}
	p.benches, p.refs = len(member), len(refs)
	p.work, _ = dedupRefs(refs)
	return p, nil
}

// info summarizes the plan holding art.
func (p shardPlan) info(art *coveredShard, resumed bool) *ShardInfo {
	return &ShardInfo{
		Index:           p.index,
		Count:           p.count,
		Benchmarks:      p.benches,
		Refs:            p.refs,
		UniqueIntervals: art.uniqueCount(),
		Instructions:    art.instructions,
		Resumed:         resumed,
	}
}

// EncodeShard characterizes shard index of count of the sampled dataset
// and returns the encoded shard artifact — the worker half of a sharded
// characterization. With cfg.CacheDir set the shard goes through the
// vector tier like any characterization: cached vectors are read, the
// rest are computed and stored, where a later Run over the same cache
// reads them. Without a cache directory a stateless worker computes the
// shard in memory. The artifact is encoded for the wire only; it is
// never stored. A nil logf discards the progress line.
func EncodeShard(reg *bench.Registry, cfg Config, index, count int, logf func(string, ...any)) ([]byte, *ShardInfo, error) {
	p, err := planShard(reg, &cfg, index, count)
	if err != nil {
		return nil, nil, err
	}
	cache, err := openCache(cfg)
	if err != nil {
		return nil, nil, err
	}
	art := &coveredShard{work: p.work}
	hits, err := art.compute(cfg, cache)
	if err != nil {
		return nil, nil, err
	}
	payload, err := art.MarshalBinary()
	if err != nil {
		return nil, nil, err
	}
	if logf != nil {
		logf("shard %d/%d: %d of %d interval vectors were cached", index, count, hits, len(p.work))
	}
	return payload, p.info(art, hits == len(p.work)), nil
}

// PutShardArtifact verifies an encoded shard artifact for shard index of
// count against the local registry and configuration and stores its
// rows in cfg.CacheDir as interval vectors — the coordinator half of a
// distributed run. Verification is strict: the payload must decode under
// the current schema version and must hold exactly the intervals the
// local shard plan expects, in plan order. A payload that fails is
// rejected (its intervals stay uncached and the run characterizes them
// locally); nothing of it is stored.
func PutShardArtifact(reg *bench.Registry, cfg Config, index, count int, payload []byte) (*ShardInfo, error) {
	if cfg.CacheDir == "" {
		return nil, fmt.Errorf("core: storing a shard artifact needs a cache directory")
	}
	p, err := planShard(reg, &cfg, index, count)
	if err != nil {
		return nil, err
	}
	art := &coveredShard{work: p.work}
	if err := art.UnmarshalBinary(payload); err != nil {
		return nil, fmt.Errorf("core: shard %d/%d artifact rejected: %w", index, count, err)
	}
	cache, err := openCache(cfg)
	if err != nil {
		return nil, err
	}
	// One file per vector costs the filesystem's per-file create and
	// rename, so the writes fan out over cfg.Workers like
	// characterizeUnique's.
	errs := make([]error, len(p.work))
	par.For(cfg.Workers, len(p.work), func(i int) {
		errs[i] = cache.PutVector(vectorKey(p.work[i], cfg.IntervalLength), art.rows[i])
	})
	if err := par.FirstError(errs); err != nil {
		return nil, err
	}
	return p.info(art, false), nil
}
