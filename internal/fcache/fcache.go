// Package fcache is a content-addressed on-disk cache for expensive
// derived artifacts of the synthetic-workload pipeline — the 69-element
// MICA interval vectors, whose generation dominates the pipeline's
// runtime, encoded interval traces, and the stage artifacts of the
// pipeline engine (dataset shards, PCA models, score matrices, clustering
// results, stage summaries, per-benchmark timelines).
//
// Entries are keyed by everything that determines the artifact bit for
// bit: the artifact kind, a schema version (bumped whenever the producing
// kernel's observable output changes), the behaviour's full content hash,
// the interval seed, and the interval length. A cache hit therefore
// replaces regeneration exactly; any input or kernel change misses and
// regenerates.
//
// Entries are self-validating: each file stores a magic number, the full
// key, the payload length and an FNV-1a checksum. Get re-verifies all of
// them and treats any mismatch — truncation, corruption, a hash collision
// in the file name, a version bump — as a miss, deleting the bad entry on
// a best-effort basis. A cache can never return wrong data silently; the
// worst failure mode is regenerating.
//
// Writes are atomic (temp file + rename), so concurrent workers and
// processes may share one cache directory: duplicate Puts race benignly,
// with the last rename winning. GetOrCompute computes a missing entry at
// most once per process (see singleflight.go); processes do not
// coordinate, so two racing on one key each compute identical bytes.
package fcache

import (
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/kernel"
	"repro/internal/obs"
)

// ErrVersionSkew marks an entry that is internally consistent but was
// produced under a different schema version than the reader expects — a
// cache shared between binaries built at different schema revisions, or
// an artifact planted by an out-of-date worker. Version skew is a miss
// like any other corruption (the entry is deleted and the artifact
// regenerated), but it is counted separately (fcache.version_skew) so an
// operator can tell a fleet-wide schema rollout from disk rot.
var ErrVersionSkew = errors.New("fcache: entry schema version mismatch")

// Artifact kinds. The kind participates in the key, so distinct artifact
// types for the same (behavior, seed, length) never collide.
const (
	// KindVector is a 69-element MICA characteristic vector.
	KindVector uint16 = 1
	// KindTrace is an encoded binary instruction trace.
	KindTrace uint16 = 2
	// KindShard is a characterized dataset shard: the unique interval
	// vectors of one deterministic subset of the benchmark registry.
	KindShard uint16 = 3
	// KindPCA is a fitted principal-components model.
	KindPCA uint16 = 4
	// KindScores is a rescaled-PCA score matrix.
	KindScores uint16 = 5
	// KindCluster is a fitted k-means clustering result.
	KindCluster uint16 = 6
	// KindSummary is the prominent-phase summary of a pipeline run.
	KindSummary uint16 = 7
	// KindTimeline is a per-benchmark phase-timeline analysis.
	KindTimeline uint16 = 8
	// KindBaseline is the engine's baseline manifest: the benchmark
	// roster of the latest unsharded dataset computed under a given set
	// of sampling parameters, which a superset roster extends.
	KindBaseline uint16 = 9
	// Kind 10 is retired (it held cumulative timeline statistics) and
	// stays reserved: never reuse it, or entries an older build wrote
	// under it could be read as the new kind.

	// maxKind bounds the per-kind counter table; bump alongside new kinds.
	maxKind = KindBaseline
)

// KindName returns the short lower-case name of an artifact kind, used to
// label the per-kind cache counters (fcache.hits.<name>, ...).
func KindName(kind uint16) string {
	switch kind {
	case KindVector:
		return "vector"
	case KindTrace:
		return "trace"
	case KindShard:
		return "shard"
	case KindPCA:
		return "pca"
	case KindScores:
		return "scores"
	case KindCluster:
		return "cluster"
	case KindSummary:
		return "summary"
	case KindTimeline:
		return "timeline"
	case KindBaseline:
		return "baseline"
	default:
		return fmt.Sprintf("kind%d", kind)
	}
}

// magic identifies fcache entry files ("FCH2"). The v2 format widened
// the header so the payload starts 8-byte aligned; v1 ("FCH1") entries
// miss by magic, are deleted as corrupt, and regenerate under v2.
const magic = 0x46434832

// headerSize is the fixed entry prefix: magic(4) kind(2) pad(2)
// version(4) pad(4) behavior(8) seed(8) length(8) payloadLen(8). The
// payload begins at a multiple of 8, so an aligned float64 block can be
// decoded zero-copy by reinterpreting the entry buffer in place.
const headerSize = 4 + 2 + 2 + 4 + 4 + 8 + 8 + 8 + 8

// Key identifies one cached artifact.
type Key struct {
	// Kind is the artifact type (KindVector, KindTrace).
	Kind uint16
	// Version is the producer's schema version; bump it whenever the
	// producing code's observable output changes.
	Version uint32
	// Behavior is the full content hash of the generating behaviour
	// (trace.PhaseBehavior.BehaviorHash).
	Behavior uint64
	// Seed is the interval seed.
	Seed uint64
	// Length is the interval length in instructions.
	Length int64
}

// hash folds the key into the 64-bit value used for the file name.
func (k Key) hash() uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range []uint64{uint64(k.Kind), uint64(k.Version), k.Behavior, k.Seed, uint64(k.Length)} {
		h ^= v
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// Cache is a handle on one cache directory. The zero value is invalid;
// use Open.
type Cache struct {
	dir string
	// hot is the directory's shared in-memory payload tier (see hot.go);
	// nil unless EnableHotTier was called for dir.
	hot *hotTier

	// Observability sinks, installed by SetMetrics. All are nil (no-op)
	// by default, so the uninstrumented hot path pays only nil checks.
	hits         *obs.Counter
	misses       *obs.Counter
	corrupt      *obs.Counter
	skew         *obs.Counter
	bytesRead    *obs.Counter
	bytesWritten *obs.Counter
	hotHits      *obs.Counter
	hotMisses    *obs.Counter
	hotEvict     *obs.Counter
	hotBytes     *obs.Counter
	sfLeader     *obs.Counter
	sfShared     *obs.Counter
	// kindHits/kindMisses split the traffic per artifact kind
	// (fcache.hits.vector, fcache.misses.shard, ...), indexed by Kind.
	kindHits   [maxKind + 1]*obs.Counter
	kindMisses [maxKind + 1]*obs.Counter

	// swept counts stale temp files removed at Open, held until a
	// collector is installed (SetMetrics flushes it).
	swept int64
}

// tempPrefix marks in-flight Put files; see Put and sweepStaleTemps.
const tempPrefix = ".put-"

// staleTempAge is how old a temp file must be before Open reclaims it. A
// live Put holds its temp file for milliseconds; anything this old is an
// orphan from a process that died between CreateTemp and rename.
const staleTempAge = time.Hour

// sweptDirs remembers which directories this process has already swept
// for stale temp files, so repeated Opens of the same cache (one per
// Characterize call on the hot path) do not re-walk the whole tree. A
// stale temp is by definition at least an hour old; once per process is
// plenty to reclaim it.
var sweptDirs sync.Map // dir string -> struct{}

// Open prepares a cache rooted at dir, creating it if needed. Orphaned
// Put temp files older than an hour are swept best-effort — at most once
// per directory per process — so a crashed writer cannot leak disk
// forever and a hot loop of Opens does not pay a directory walk each
// time.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("fcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fcache: %w", err)
	}
	c := &Cache{dir: dir, hot: hotFor(dir)}
	if _, seen := sweptDirs.LoadOrStore(dir, struct{}{}); !seen {
		c.swept = sweepStaleTemps(dir)
	}
	return c, nil
}

// SetMetrics installs an observability collector: cache traffic is
// recorded under the counters fcache.hits, fcache.misses,
// fcache.corrupt_deleted, fcache.bytes_read, fcache.bytes_written and
// fcache.temps_swept, plus the per-kind splits fcache.hits.<kind> and
// fcache.misses.<kind>. A nil collector (the default) keeps every sink a
// no-op.
func (c *Cache) SetMetrics(m *obs.Metrics) {
	c.hits = m.Counter("fcache.hits")
	c.misses = m.Counter("fcache.misses")
	c.corrupt = m.Counter("fcache.corrupt_deleted")
	c.skew = m.Counter("fcache.version_skew")
	c.bytesRead = m.Counter("fcache.bytes_read")
	c.bytesWritten = m.Counter("fcache.bytes_written")
	c.hotHits = m.Counter("fcache.hot_hits")
	c.hotMisses = m.Counter("fcache.hot_misses")
	c.hotEvict = m.Counter("fcache.hot_evictions")
	c.hotBytes = m.Counter("fcache.hot_bytes")
	c.sfLeader = m.Counter("fcache.sf_leader")
	c.sfShared = m.Counter("fcache.sf_shared")
	for kind := uint16(1); kind <= maxKind; kind++ {
		c.kindHits[kind] = m.Counter("fcache.hits." + KindName(kind))
		c.kindMisses[kind] = m.Counter("fcache.misses." + KindName(kind))
	}
	m.Counter("fcache.temps_swept").Add(c.swept)
}

// countHit/countMiss record one Get outcome on the global and per-kind
// counters (all nil-safe no-ops without a collector).
func (c *Cache) countHit(kind uint16) {
	c.hits.Inc()
	if kind <= maxKind {
		c.kindHits[kind].Inc()
	}
}

func (c *Cache) countMiss(kind uint16) {
	c.misses.Inc()
	if kind <= maxKind {
		c.kindMisses[kind].Inc()
	}
}

// sweepStaleTemps removes orphaned Put temp files under dir,
// best-effort (a cache must never fail a run over janitorial work), and
// returns how many it reclaimed. The sweep is age-gated on mtime: fresh
// temps are left alone, because they may belong to a live writer in a
// concurrent process — only files old enough that their owner must be
// dead are reclaimed.
func sweepStaleTemps(dir string) int64 {
	cutoff := time.Now().Add(-staleTempAge)
	var swept int64
	_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasPrefix(d.Name(), tempPrefix) {
			return nil
		}
		info, err := d.Info()
		if err != nil || !info.ModTime().Before(cutoff) {
			return nil
		}
		if os.Remove(path) == nil {
			swept++
		}
		return nil
	})
	return swept
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// path returns the entry file for a key: two single-byte hex levels fan
// entries out so no directory grows unboundedly.
func (c *Cache) path(k Key) string {
	h := k.hash()
	return filepath.Join(c.dir,
		fmt.Sprintf("%02x", byte(h>>56)),
		fmt.Sprintf("%02x", byte(h>>48)),
		fmt.Sprintf("%016x.fc", h))
}

// fnv1a is the 64-bit FNV-1a checksum of b.
func fnv1a(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}

// encode renders the full entry file for key + payload.
func encode(k Key, payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload)+8)
	le := binary.LittleEndian
	le.PutUint32(buf[0:], magic)
	le.PutUint16(buf[4:], k.Kind)
	// buf[6:8] and buf[12:16] are zero padding (payload alignment).
	le.PutUint32(buf[8:], k.Version)
	le.PutUint64(buf[16:], k.Behavior)
	le.PutUint64(buf[24:], k.Seed)
	le.PutUint64(buf[32:], uint64(k.Length))
	le.PutUint64(buf[40:], uint64(len(payload)))
	copy(buf[headerSize:], payload)
	le.PutUint64(buf[headerSize+len(payload):], fnv1a(buf[:headerSize+len(payload)]))
	return buf
}

// decode validates an entry file against the expected key and returns its
// payload, or an error describing the first mismatch.
func decode(k Key, buf []byte) ([]byte, error) {
	le := binary.LittleEndian
	if len(buf) < headerSize+8 {
		return nil, fmt.Errorf("fcache: entry truncated (%d bytes)", len(buf))
	}
	if le.Uint32(buf[0:]) != magic {
		return nil, fmt.Errorf("fcache: bad magic")
	}
	got := Key{
		Kind:     le.Uint16(buf[4:]),
		Version:  le.Uint32(buf[8:]),
		Behavior: le.Uint64(buf[16:]),
		Seed:     le.Uint64(buf[24:]),
		Length:   int64(le.Uint64(buf[32:])),
	}
	// The version is compared explicitly, not just as part of the whole
	// key: an artifact produced under another schema version must never be
	// decoded as if it were current, and the skew is reported distinctly.
	if got.Version != k.Version {
		return nil, fmt.Errorf("%w (stored %d, want %d)", ErrVersionSkew, got.Version, k.Version)
	}
	if got != k {
		return nil, fmt.Errorf("fcache: key mismatch (stored %+v, want %+v)", got, k)
	}
	n := le.Uint64(buf[40:])
	if n != uint64(len(buf)-headerSize-8) {
		return nil, fmt.Errorf("fcache: payload length %d does not match file size", n)
	}
	body := buf[: headerSize+n : headerSize+n]
	if fnv1a(body) != le.Uint64(buf[headerSize+n:]) {
		return nil, fmt.Errorf("fcache: checksum mismatch")
	}
	return buf[headerSize : headerSize+n], nil
}

// Get returns the cached payload for k, or ok=false on any miss —
// absence, truncation, corruption, or a key/version mismatch. Invalid
// entries are removed best-effort so they are rebuilt cleanly; with a
// collector installed the removal is visible as fcache.corrupt_deleted
// rather than silent.
func (c *Cache) Get(k Key) (payload []byte, ok bool) {
	payload, ok = c.get(k)
	if ok {
		c.countHit(k.Kind)
	} else {
		c.countMiss(k.Kind)
	}
	return payload, ok
}

// get is Get without the hit/miss accounting, shared with GetVector
// (which has its own extra validity check and counts on its own). With a
// hot tier enabled, resident payloads are served from memory; disk hits
// warm the tier on the way out.
func (c *Cache) get(k Key) (payload []byte, ok bool) {
	if p, ok := c.hot.get(k); ok {
		c.hotHits.Inc()
		return p, true
	}
	if c.hot != nil {
		c.hotMisses.Inc()
	}
	p := c.path(k)
	buf, err := os.ReadFile(p)
	if err != nil {
		return nil, false
	}
	c.bytesRead.Add(int64(len(buf)))
	payload, err = decode(k, buf)
	if err != nil {
		os.Remove(p) // never trust it again
		c.hot.drop(k)
		c.corrupt.Inc()
		if errors.Is(err, ErrVersionSkew) {
			c.skew.Inc()
		}
		return nil, false
	}
	c.warmHot(k, payload)
	return payload, true
}

// warmHot populates the hot tier with a just-validated or just-written
// payload and charges the movement to the handle's counters.
func (c *Cache) warmHot(k Key, payload []byte) {
	if c.hot == nil {
		return
	}
	evicted, delta := c.hot.put(k, payload)
	c.hotEvict.Add(int64(evicted))
	c.hotBytes.Add(delta)
}

// Put stores payload under k, atomically: the entry is written to a
// unique temp file and renamed into place, so readers only ever observe
// complete entries. Errors are returned but safe to ignore — a failed Put
// only costs a future regeneration.
func (c *Cache) Put(k Key, payload []byte) error {
	p := c.path(k)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("fcache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), tempPrefix+"*")
	if err != nil {
		return fmt.Errorf("fcache: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(encode(k, payload)); err != nil {
		tmp.Close()
		return fmt.Errorf("fcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("fcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		return fmt.Errorf("fcache: %w", err)
	}
	c.bytesWritten.Add(int64(headerSize + len(payload) + 8))
	c.warmHot(k, payload)
	return nil
}

// Discard removes the entry for k — disk and hot tier — and counts it
// as corrupt-deleted. For callers whose decoder rejected a payload that
// passed the cache's own checksum (an artifact-level schema skew): the
// entry must not be trusted again, exactly as if decode had failed.
func (c *Cache) Discard(k Key) {
	os.Remove(c.path(k))
	c.hot.drop(k)
	c.corrupt.Inc()
}

// GetVector fetches a cached float64 vector of exactly want elements.
// A stored vector of any other size is treated as corrupt (miss).
func (c *Cache) GetVector(k Key, want int) ([]float64, bool) {
	payload, ok := c.get(k)
	if !ok {
		c.countMiss(k.Kind)
		return nil, false
	}
	if len(payload) != 8*want {
		os.Remove(c.path(k))
		c.hot.drop(k)
		c.corrupt.Inc()
		c.countMiss(k.Kind)
		return nil, false
	}
	c.countHit(k.Kind)
	v := make([]float64, want)
	kernel.CopyFloats(v, payload)
	return v, true
}

// PutVector stores a float64 vector (bit-exact: values round-trip through
// their IEEE-754 bits, including negative zero and NaN payloads).
func (c *Cache) PutVector(k Key, v []float64) error {
	return c.Put(k, kernel.AppendFloats(make([]byte, 0, 8*len(v)), v))
}

// PutBinary stores a structured artifact (a matrix, a PCA model, a
// clustering result, a stage summary) through its binary marshalling,
// under the same checksummed, atomically-written entry format as every
// other kind.
func (c *Cache) PutBinary(k Key, v encoding.BinaryMarshaler) error {
	payload, err := v.MarshalBinary()
	if err != nil {
		return fmt.Errorf("fcache: encoding %s artifact: %w", KindName(k.Kind), err)
	}
	return c.Put(k, payload)
}

// GetBinary fetches a structured artifact into v. Any failure — absence,
// truncation, checksum or key mismatch, or a payload v refuses to
// unmarshal — is a miss; undecodable entries are deleted (and counted as
// fcache.corrupt_deleted) so the producing stage regenerates them instead
// of failing.
func (c *Cache) GetBinary(k Key, v encoding.BinaryUnmarshaler) bool {
	payload, ok := c.get(k)
	if !ok {
		c.countMiss(k.Kind)
		return false
	}
	if err := v.UnmarshalBinary(payload); err != nil {
		os.Remove(c.path(k))
		c.hot.drop(k)
		c.corrupt.Inc()
		c.countMiss(k.Kind)
		return false
	}
	c.countHit(k.Kind)
	return true
}
