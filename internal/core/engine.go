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
//   - one characterize path: a characterize miss whose roster extends
//     the latest cached run's copies that run's rows and characterizes
//     only the added benchmarks (see incremental.go); any other miss
//     characterizes through the interval-vector tier, which is where
//     shard workers (EncodeShard, remote.go) leave their vectors.
//
// The load-bearing invariant: loading an artifact is bit-for-bit
// equivalent to recomputing it, so any mix of computed and resumed
// stages and cached vectors yields a byte-identical Result at any
// worker count.

import (
	"encoding"
	"fmt"

	"repro/internal/bench"
	"repro/internal/fcache"
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
	logf  func(format string, args ...any)
}

// newEngine opens the cache (when configured) and precomputes the
// artifact key chain. refs must be the run's sampled dataset.
func newEngine(reg *bench.Registry, cfg Config, refs []IntervalRef, logf func(string, ...any)) (*engine, error) {
	cache, err := openCache(cfg)
	if err != nil {
		return nil, err
	}
	e := &engine{reg: reg, cfg: cfg, cache: cache, logf: logf}
	if cache != nil {
		e.keys = newArtifactKeys(reg, cfg, len(refs))
	}
	return e, nil
}

// Key accessors tolerate cache-less runs: without a cache there is no
// key chain (e.keys is nil) and the zero Key is never used, because
// getOrCompute only touches keys when a cache is configured.

func (e *engine) characterizeKey() fcache.Key {
	if e.keys == nil {
		return fcache.Key{}
	}
	return characterizeKey(e.keys.dataset, e.keys.rows)
}

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
// concurrent service jobs in one process needing the same artifact
// elect one computer, and the rest read its entry. Without a cache it
// just computes. Returns whether art was loaded rather than computed.
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

// characterize is the run's one characterize stage. It loads the
// dataset artifact; on a miss it extends the baseline when one applies
// (see incremental.go) and otherwise characterizes every unique interval
// through the vector tier, so intervals a shard worker or an earlier run
// already measured are read, not regenerated.
func (e *engine) characterize(refs []IntervalRef) (*Dataset, error) {
	if len(refs) == 0 {
		return nil, fmt.Errorf("core: no intervals to characterize")
	}
	work, slot := dedupRefs(refs)
	art := &coveredShard{work: work}
	hits, mode := 0, "computed"
	loaded, err := getOrCompute(e.cache, e.characterizeKey(), art, func() (err error) {
		if e.cache == nil {
			hits, err = art.compute(e.cfg, nil)
			return err
		}
		var delta bool
		if hits, delta, err = e.extendOrCompute(refs, art); delta {
			mode = "delta"
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	switch {
	case loaded:
		// Every interval the artifact holds was served from the cache.
		mode, hits = "resumed", len(work)
		e.cfg.Metrics.StartSpan("characterize").SetRows(len(work)).SetResumed(true).End()
		e.logf("characterize: resumed from dataset artifact")
	case e.cache != nil:
		e.writeManifest(refs)
	}
	e.markStage("characterize", mode)
	return art.dataset(refs, slot, hits), nil
}
