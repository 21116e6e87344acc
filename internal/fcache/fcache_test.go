package fcache

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
)

func testCache(t *testing.T) *Cache {
	t.Helper()
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testKey() Key {
	return Key{Kind: KindVector, Version: 1, Behavior: 0xdeadbeefcafe, Seed: 42, Length: 20000}
}

func TestRoundTrip(t *testing.T) {
	c := testCache(t)
	k := testKey()
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache returned a hit")
	}
	payload := []byte("hello interval")
	if err := c.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(k)
	if !ok {
		t.Fatal("stored entry not found")
	}
	if string(got) != string(payload) {
		t.Fatalf("payload = %q, want %q", got, payload)
	}
}

func TestVectorRoundTripBitExact(t *testing.T) {
	c := testCache(t)
	k := testKey()
	v := []float64{0, 1.5, -0, math.Pi, math.Inf(1), math.NaN(), 1e-308}
	if err := c.PutVector(k, v); err != nil {
		t.Fatal(err)
	}
	got, ok := c.GetVector(k, len(v))
	if !ok {
		t.Fatal("vector not found")
	}
	for i := range v {
		if math.Float64bits(got[i]) != math.Float64bits(v[i]) {
			t.Fatalf("element %d: %x != %x", i, math.Float64bits(got[i]), math.Float64bits(v[i]))
		}
	}
	// A size mismatch is corruption, not a partial answer.
	if _, ok := c.GetVector(k, len(v)+1); ok {
		t.Fatal("wrong-size vector request returned a hit")
	}
	// And the offending entry must have been dropped.
	if _, ok := c.Get(k); ok {
		t.Fatal("size-mismatched entry survived")
	}
}

func TestKeyFieldsDisambiguate(t *testing.T) {
	c := testCache(t)
	base := testKey()
	if err := c.Put(base, []byte("base")); err != nil {
		t.Fatal(err)
	}
	variants := []Key{
		{Kind: KindTrace, Version: base.Version, Behavior: base.Behavior, Seed: base.Seed, Length: base.Length},
		{Kind: base.Kind, Version: base.Version + 1, Behavior: base.Behavior, Seed: base.Seed, Length: base.Length},
		{Kind: base.Kind, Version: base.Version, Behavior: base.Behavior ^ 1, Seed: base.Seed, Length: base.Length},
		{Kind: base.Kind, Version: base.Version, Behavior: base.Behavior, Seed: base.Seed + 1, Length: base.Length},
		{Kind: base.Kind, Version: base.Version, Behavior: base.Behavior, Seed: base.Seed, Length: base.Length + 1},
	}
	for i, k := range variants {
		if _, ok := c.Get(k); ok {
			t.Fatalf("variant %d hit the base entry", i)
		}
	}
}

// TestCorruptEntryDetectedAndRemoved flips single bytes at several offsets
// of a valid entry and verifies each corruption is a miss that deletes the
// file — the acceptance criterion that a damaged cache is regenerated,
// never trusted.
func TestCorruptEntryDetectedAndRemoved(t *testing.T) {
	payload := []byte("0123456789abcdef0123456789abcdef")
	for _, offset := range []int{0, 5, 9, 15, 25, 36, headerSize, headerSize + 10, headerSize + len(payload) + 3} {
		c := testCache(t)
		k := testKey()
		if err := c.Put(k, payload); err != nil {
			t.Fatal(err)
		}
		p := c.path(k)
		buf, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		buf[offset] ^= 0x40
		if err := os.WriteFile(p, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(k); ok {
			t.Fatalf("corruption at offset %d went undetected", offset)
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("corrupt entry at offset %d not removed", offset)
		}
		// After removal a fresh Put must succeed again.
		if err := c.Put(k, payload); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(k); !ok {
			t.Fatal("regenerated entry not readable")
		}
	}
}

func TestTruncatedEntryIsMiss(t *testing.T) {
	c := testCache(t)
	k := testKey()
	if err := c.Put(k, []byte("some payload bytes")); err != nil {
		t.Fatal(err)
	}
	p := c.path(k)
	buf, _ := os.ReadFile(p)
	for _, n := range []int{0, 3, headerSize - 1, headerSize + 2, len(buf) - 1} {
		if err := os.WriteFile(p, buf[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(k); ok {
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
	}
}

func TestVersionBumpInvalidates(t *testing.T) {
	c := testCache(t)
	k := testKey()
	if err := c.PutVector(k, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	k2 := k
	k2.Version++
	if _, ok := c.GetVector(k2, 3); ok {
		t.Fatal("entry survived a schema version bump")
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty dir accepted")
	}
}

func TestPutIsAtomicallyVisible(t *testing.T) {
	c := testCache(t)
	k := testKey()
	if err := c.Put(k, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// No temp litter left behind.
	var stray []string
	filepath.Walk(c.Dir(), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && filepath.Ext(path) != ".fc" {
			stray = append(stray, path)
		}
		return nil
	})
	if len(stray) != 0 {
		t.Fatalf("stray files after Put: %v", stray)
	}
}

// TestOpenSweepsStaleTemps plants one stale and one fresh orphaned Put
// temp file and verifies Open reclaims exactly the stale one — a crashed
// writer's litter is cleaned up, a live concurrent writer's file is not.
func TestOpenSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(testKey(), []byte("payload")); err != nil {
		t.Fatal(err)
	}
	sub := filepath.Dir(c.path(testKey()))
	stale := filepath.Join(sub, tempPrefix+"stale123")
	fresh := filepath.Join(sub, tempPrefix+"fresh456")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial write"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	// Open sweeps each directory at most once per process; drop the memo
	// entry so the second Open behaves like a fresh process.
	sweptDirs.Delete(dir)
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale temp file survived Open")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp file was swept: %v", err)
	}
	// The real entry is untouched and the sweep is visible once a
	// collector is installed.
	if _, ok := c2.Get(testKey()); !ok {
		t.Fatal("sweep damaged a valid entry")
	}
	m := obs.New()
	c2.SetMetrics(m)
	if got := m.Counter("fcache.temps_swept").Value(); got != 1 {
		t.Fatalf("fcache.temps_swept = %d, want 1", got)
	}
}

// TestMetricsCounters pins the full counter contract: hits, misses,
// corrupt-entry deletions and byte traffic, through both Get and
// GetVector.
func TestMetricsCounters(t *testing.T) {
	c := testCache(t)
	m := obs.New()
	c.SetMetrics(m)
	val := func(name string) int64 { return m.Counter(name).Value() }
	k := testKey()

	if _, ok := c.Get(k); ok {
		t.Fatal("unexpected hit")
	}
	if val("fcache.misses") != 1 || val("fcache.hits") != 0 {
		t.Fatalf("after absent Get: hits=%d misses=%d", val("fcache.hits"), val("fcache.misses"))
	}

	payload := []byte("0123456789abcdef")
	if err := c.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	entrySize := int64(headerSize + len(payload) + trailerSize)
	if got := val("fcache.bytes_written"); got != entrySize {
		t.Fatalf("bytes_written = %d, want %d", got, entrySize)
	}
	if _, ok := c.Get(k); !ok {
		t.Fatal("stored entry missed")
	}
	if val("fcache.hits") != 1 || val("fcache.bytes_read") != entrySize {
		t.Fatalf("after hit: hits=%d bytes_read=%d", val("fcache.hits"), val("fcache.bytes_read"))
	}

	// Corrupt the entry: the deletion must be counted, not silent.
	p := c.path(k)
	buf, _ := os.ReadFile(p)
	buf[headerSize] ^= 0xff
	if err := os.WriteFile(p, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("corrupt entry hit")
	}
	if val("fcache.corrupt_deleted") != 1 || val("fcache.misses") != 2 {
		t.Fatalf("after corrupt Get: corrupt_deleted=%d misses=%d",
			val("fcache.corrupt_deleted"), val("fcache.misses"))
	}

	// A size-mismatched vector is corruption through the GetVector path.
	kv := k
	kv.Seed++
	if err := c.PutVector(kv, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.GetVector(kv, 3); !ok || len(v) != 3 {
		t.Fatal("vector missed")
	}
	if val("fcache.hits") != 2 {
		t.Fatalf("vector hit not counted: hits=%d", val("fcache.hits"))
	}
	if err := c.PutVector(kv, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetVector(kv, 4); ok {
		t.Fatal("wrong-size vector hit")
	}
	if val("fcache.corrupt_deleted") != 2 {
		t.Fatalf("size-mismatch deletion not counted: corrupt_deleted=%d", val("fcache.corrupt_deleted"))
	}

	// Without a collector, the same paths still work (no-op sinks).
	c2 := testCache(t)
	if err := c2.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(k); !ok {
		t.Fatal("uninstrumented cache broken")
	}
}
