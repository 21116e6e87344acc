package core

// Remote-shard entry points: the pieces of the engine that the
// distributed shard service (internal/shardnet) needs across a process
// or machine boundary. A shardnet worker characterizes one shard and
// ships the encoded artifact back (EncodeShard); the coordinator
// verifies it against its own registry and configuration and stores it
// through the ordinary fcache shard kind (PutShardArtifact), so a
// networked run and a local run share one cache and one merge path —
// and therefore one byte-identical result.

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
	cfg.Shard, cfg.CacheDir = ShardSpec{}, ""
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	return newArtifactKeys(reg, cfg, 0).dataset, nil
}

// normalizeShard bounds-checks cfg.Shard and returns the effective
// (index, count) with count >= 1.
func normalizeShard(cfg Config) (int, int, error) {
	count := cfg.Shard.Count
	if count < 1 {
		count = 1
	}
	if cfg.Shard.Index < 0 || cfg.Shard.Index >= count {
		return 0, 0, fmt.Errorf("core: shard index %d outside [0,%d)", cfg.Shard.Index, count)
	}
	return cfg.Shard.Index, count, nil
}

// EncodeShard characterizes shard cfg.Shard of the sampled dataset and
// returns the encoded shard artifact — the worker half of a distributed
// run. Unlike CharacterizeShard it does not require a cache directory:
// a stateless worker computes the shard in memory and ships the bytes;
// a worker with cfg.CacheDir set additionally persists (and on a rerun
// reuses) the artifact locally.
func EncodeShard(reg *bench.Registry, cfg Config, logf func(string, ...any)) ([]byte, *ShardInfo, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	// Validate with the shard spec detached: Validate ties Shard.Count > 1
	// to a cache directory because a local sharded *run* merges through
	// the cache, but a worker only computes and encodes.
	shard := cfg.Shard
	cfg.Shard = ShardSpec{}
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	cfg.Shard = shard
	index, count, err := normalizeShard(cfg)
	if err != nil {
		return nil, nil, err
	}
	if reg.Len() == 0 {
		return nil, nil, fmt.Errorf("core: empty benchmark registry")
	}
	refs := SampleRefs(reg, cfg)
	eng, err := newEngine(reg, cfg, refs, logf)
	if err != nil {
		return nil, nil, err
	}
	p := eng.planShards(refs)[index]
	art, loaded, _, err := eng.loadOrComputeShard(p)
	if err != nil {
		return nil, nil, err
	}
	payload, err := art.MarshalBinary()
	if err != nil {
		return nil, nil, err
	}
	return payload, &ShardInfo{
		Index:           index,
		Count:           count,
		Benchmarks:      len(p.benches),
		Refs:            len(p.refs),
		UniqueIntervals: art.uniqueCount(),
		Instructions:    art.instructions,
		Resumed:         loaded,
	}, nil
}

// PutShardArtifact verifies an encoded shard artifact against the local
// registry and configuration and stores it in cfg.CacheDir under the
// shard's content-addressed key — the coordinator half of a distributed
// run. Verification is strict: the payload must decode under the current
// schema version and must hold exactly the intervals the local shard
// plan expects, in plan order. A payload that fails is rejected (the
// shard stays uncached and the merge run recomputes it locally); it is
// never stored.
func PutShardArtifact(reg *bench.Registry, cfg Config, payload []byte) (*ShardInfo, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.CacheDir == "" {
		return nil, fmt.Errorf("core: storing a shard artifact needs a cache directory")
	}
	index, count, err := normalizeShard(cfg)
	if err != nil {
		return nil, err
	}
	if reg.Len() == 0 {
		return nil, fmt.Errorf("core: empty benchmark registry")
	}
	refs := SampleRefs(reg, cfg)
	eng, err := newEngine(reg, cfg, refs, func(string, ...any) {})
	if err != nil {
		return nil, err
	}
	p := eng.planShards(refs)[index]
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
	return &ShardInfo{
		Index:           p.index,
		Count:           p.count,
		Benchmarks:      len(p.benches),
		Refs:            len(p.refs),
		UniqueIntervals: art.uniqueCount(),
		Instructions:    art.instructions,
	}, nil
}
