package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/obs"
)

// noLog discards engine progress output in tests.
func noLog(string, ...any) {}

// TestEncodePutRoundTrip moves both shards of a 2-shard run through the
// remote path — EncodeShard on a cacheless "worker", PutShardArtifact on
// the "coordinator" — and pins that the plain run after it reads every
// interval from the transferred vectors and matches the plain cacheless
// run byte for byte.
func TestEncodePutRoundTrip(t *testing.T) {
	reg := miniRegistry(t)
	plain, err := Run(reg, miniConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := exportJSON(t, plain)

	cfg := miniConfig()
	cfg.CacheDir = t.TempDir()
	for s := 0; s < 2; s++ {
		// The worker is stateless: no cache directory.
		payload, info, err := EncodeShard(reg, miniConfig(), s, 2, noLog)
		if err != nil {
			t.Fatalf("EncodeShard %d: %v", s, err)
		}
		if info.Index != s || info.Count != 2 || info.UniqueIntervals == 0 {
			t.Fatalf("EncodeShard %d info = %+v", s, info)
		}
		if _, err := PutShardArtifact(reg, cfg, s, 2, payload); err != nil {
			t.Fatalf("PutShardArtifact %d: %v", s, err)
		}
	}

	m := obs.New()
	cfg.Metrics = m
	res, err := Run(reg, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := exportJSON(t, res); !bytes.Equal(got, want) {
		t.Error("run over transferred shards differs from plain run")
	}
	if got := m.Counter("fcache.misses.vector").Value(); got != 0 {
		t.Errorf("fcache.misses.vector = %d, want 0 (all shards transferred)", got)
	}
	if got := m.Counter("fcache.hits.vector").Value(); got != int64(res.Dataset.UniqueIntervals) {
		t.Errorf("fcache.hits.vector = %d, want %d unique intervals", got, res.Dataset.UniqueIntervals)
	}
}

// TestPutShardArtifactRejects pins the coordinator-side verification:
// payloads with a skewed schema version, damaged bytes, or the wrong
// shard's intervals are rejected and never stored.
func TestPutShardArtifactRejects(t *testing.T) {
	reg := miniRegistry(t)
	cfg := miniConfig()
	payload, _, err := EncodeShard(reg, cfg, 0, 2, noLog)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CacheDir = t.TempDir()

	stale := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint32(stale, artifactVersion()-1)
	if _, err := PutShardArtifact(reg, cfg, 0, 2, stale); err == nil {
		t.Error("stale-version payload accepted")
	}

	// Structural damage (truncation) must be rejected here; bit flips in
	// float data are the transport checksum's job, not coverage checking.
	if _, err := PutShardArtifact(reg, cfg, 0, 2, payload[:len(payload)-5]); err == nil {
		t.Error("truncated payload accepted")
	}

	if _, err := PutShardArtifact(reg, cfg, 1, 2, payload); err == nil {
		t.Error("shard 0 payload accepted as shard 1")
	}
}

// TestStaleShardArtifactRecomputes plants a dataset artifact whose
// payload carries an older schema version under the run's current
// dataset key — what an out-of-date writer would leave — and pins that
// the run discards it, recomputes the dataset, and still matches the
// plain run. Before artifact payloads became self-describing this was
// undetectable through the key alone.
func TestStaleShardArtifactRecomputes(t *testing.T) {
	reg := miniRegistry(t)
	plain, err := Run(reg, miniConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := exportJSON(t, plain)

	// Shard 0 of 1 is the whole dataset in the run's row order.
	payload, _, err := EncodeShard(reg, miniConfig(), 0, 1, noLog)
	if err != nil {
		t.Fatal(err)
	}
	stale := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint32(stale, artifactVersion()-1)

	// Plant it under the run's dataset key, bypassing every writer that
	// verifies, the way a buggy or out-of-date one would.
	cfg := miniConfig()
	cfg.CacheDir = t.TempDir()
	vcfg := cfg
	if err := vcfg.Validate(); err != nil {
		t.Fatal(err)
	}
	eng, err := newEngine(reg, vcfg, SampleRefs(reg, vcfg), noLog)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.cache.Put(eng.characterizeKey(), stale); err != nil {
		t.Fatal(err)
	}

	m := obs.New()
	cfg.Metrics = m
	res, err := Run(reg, cfg, nil)
	if err != nil {
		t.Fatalf("run over stale dataset artifact: %v", err)
	}
	if got := exportJSON(t, res); !bytes.Equal(got, want) {
		t.Error("recomputed run differs from plain run")
	}
	if got := m.Counter("fcache.corrupt_deleted").Value(); got != 1 {
		t.Errorf("fcache.corrupt_deleted = %d, want 1 (the stale dataset entry)", got)
	}
	if got := m.Counter("engine.computed.characterize").Value(); got != 1 {
		t.Errorf("engine.computed.characterize = %d, want 1", got)
	}
}
