package core

// Shard entry points: the pieces of the engine that work on one shard
// of a sharded run, in a process other than the merge run. A worker —
// `phasechar -shard i/n shard` sharing the merge run's cache directory,
// or a shardnet server across a machine boundary — characterizes one
// shard and encodes its artifact (EncodeShard); a networked coordinator
// verifies the shipped bytes against its own registry and configuration
// and stores them through the ordinary fcache shard kind
// (PutShardArtifact), so a networked run and a local run share one cache
// and one merge path — and therefore one byte-identical result.

import (
	"fmt"

	"repro/internal/bench"
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
	cfg.Shard, cfg.CacheDir = 0, ""
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
	// Resumed reports that a valid artifact was already present and the
	// shard was not recomputed.
	Resumed bool
}

// shardInfo summarizes shard plan p holding art.
func shardInfo(p shardPlan, art *coveredShard, resumed bool) *ShardInfo {
	return &ShardInfo{
		Index:           p.index,
		Count:           p.count,
		Benchmarks:      len(p.benches),
		Refs:            len(p.refs),
		UniqueIntervals: art.uniqueCount(),
		Instructions:    art.instructions,
		Resumed:         resumed,
	}
}

// planShard validates cfg and the shard coordinates and plans shard
// index of count over the sampled dataset, returning the engine the
// caller runs it with. A nil logf discards the engine's progress lines.
func planShard(reg *bench.Registry, cfg Config, index, count int, logf func(string, ...any)) (*engine, shardPlan, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := cfg.Validate(); err != nil {
		return nil, shardPlan{}, err
	}
	if index < 0 || index >= count {
		return nil, shardPlan{}, fmt.Errorf("core: shard index %d outside [0,%d)", index, count)
	}
	if reg.Len() == 0 {
		return nil, shardPlan{}, fmt.Errorf("core: empty benchmark registry")
	}
	refs := SampleRefs(reg, cfg)
	eng, err := newEngine(reg, cfg, refs, logf)
	if err != nil {
		return nil, shardPlan{}, err
	}
	return eng, eng.planShards(refs, count)[index], nil
}

// EncodeShard characterizes shard index of count of the sampled dataset
// and returns the encoded shard artifact — the worker half of a sharded
// run. With cfg.CacheDir set the shard goes through the cache like any
// stage: a valid artifact already there is served (Resumed), and a
// computed one is persisted for the merge run to load. Without a cache
// directory a stateless worker computes the shard in memory and ships
// the bytes.
func EncodeShard(reg *bench.Registry, cfg Config, index, count int, logf func(string, ...any)) ([]byte, *ShardInfo, error) {
	eng, p, err := planShard(reg, cfg, index, count, logf)
	if err != nil {
		return nil, nil, err
	}
	art, mode, _, err := eng.loadOrComputeShard(p)
	if err != nil {
		return nil, nil, err
	}
	payload, err := art.MarshalBinary()
	if err != nil {
		return nil, nil, err
	}
	return payload, shardInfo(p, art, mode == "resumed"), nil
}

// PutShardArtifact verifies an encoded shard artifact for shard index of
// count against the local registry and configuration and stores it in
// cfg.CacheDir under the shard's content-addressed key — the coordinator
// half of a distributed run. Verification is strict: the payload must
// decode under the current schema version and must hold exactly the
// intervals the local shard plan expects, in plan order. A payload that
// fails is rejected (the shard stays uncached and the merge run
// recomputes it locally); it is never stored.
func PutShardArtifact(reg *bench.Registry, cfg Config, index, count int, payload []byte) (*ShardInfo, error) {
	if cfg.CacheDir == "" {
		return nil, fmt.Errorf("core: storing a shard artifact needs a cache directory")
	}
	eng, p, err := planShard(reg, cfg, index, count, nil)
	if err != nil {
		return nil, err
	}
	art := &coveredShard{work: p.work}
	if err := art.UnmarshalBinary(payload); err != nil {
		return nil, fmt.Errorf("core: shard %d/%d artifact rejected: %w", index, count, err)
	}
	key := eng.keys.shardKey(p.index, p.count, p.benches, len(p.refs))
	// Store the payload bytes as received: the codec round-trips
	// bit-identically, and keeping the wire bytes means the cache entry
	// checksum covers exactly what the worker produced.
	if err := eng.cache.Put(key, payload); err != nil {
		return nil, err
	}
	return shardInfo(p, art, false), nil
}
