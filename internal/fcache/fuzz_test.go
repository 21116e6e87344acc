package fcache

// Fuzz target for the entry format. An entry file is read back from a
// directory that other processes, older builds or a damaged disk may
// have written, so whatever bytes sit at a key's path must be either
// refused (the file deleted and counted) or accepted as exactly the
// entry this build would have written — never a panic.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/kernel"
	"repro/internal/obs"
)

// fuzzVectorLen is the element count GetVector asks for; the valid seed
// stores a vector of exactly this size.
const fuzzVectorLen = 3

// floatBlock is a BinaryUnmarshaler that accepts only whole float64
// blocks, so the fuzzer also reaches GetBinary's decoder-refusal path.
type floatBlock []float64

func (f *floatBlock) UnmarshalBinary(p []byte) error {
	if len(p)%8 != 0 {
		return errors.New("floatBlock: payload is not a whole number of float64s")
	}
	*f = make([]float64, len(p)/8)
	kernel.CopyFloats(*f, p)
	return nil
}

// fch2Entry renders k + payload in the previous entry layout ("FCH2":
// the same header, then a 64-bit FNV-1a trailer), which this build must
// refuse by magic.
func fch2Entry(k Key, payload []byte) []byte {
	buf := encode(k, payload)
	body := buf[:headerSize+len(payload)]
	binary.LittleEndian.PutUint32(body, 0x46434832)
	h := fnv.New64a()
	h.Write(body)
	return binary.LittleEndian.AppendUint64(body, h.Sum64())
}

func cacheFuzzSeeds() [][]byte {
	k := testKey()
	payload := kernel.AppendFloats(nil, []float64{1.5, -2, 1e-300})
	valid := encode(k, payload)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x01
	return [][]byte{valid, fch2Entry(k, payload), valid[:headerSize-3], flipped}
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz. Run with WRITE_FUZZ_CORPUS=1 after changing the entry
// format.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzCacheEntry")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, data := range cacheFuzzSeeds() {
		path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzCacheEntry writes arbitrary bytes as one key's entry file and
// reads it through Get, GetVector and GetBinary. Each reader must either
// refuse it, deleting the file and counting fcache.corrupt_deleted, or
// accept a payload that re-encodes to the same file bytes. Every
// accepted entry therefore carries this build's magic, so an entry in an
// older layout always misses.
func FuzzCacheEntry(f *testing.F) {
	for _, s := range cacheFuzzSeeds() {
		f.Add(s)
	}
	k := testKey()
	readers := []struct {
		name string
		read func(c *Cache) (payload []byte, ok bool)
	}{
		{"Get", func(c *Cache) ([]byte, bool) { return c.Get(k) }},
		{"GetVector", func(c *Cache) ([]byte, bool) {
			v, ok := c.GetVector(k, fuzzVectorLen)
			return kernel.AppendFloats(nil, v), ok
		}},
		{"GetBinary", func(c *Cache) ([]byte, bool) {
			var v floatBlock
			ok := c.GetBinary(k, &v)
			return kernel.AppendFloats(nil, v), ok
		}},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		m := obs.New()
		c.SetMetrics(m)
		corrupt := m.Counter("fcache.corrupt_deleted")
		p := c.path(k)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, r := range readers {
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
			before := corrupt.Value()
			payload, ok := r.read(c)
			_, statErr := os.Stat(p)
			if !ok {
				if !os.IsNotExist(statErr) {
					t.Fatalf("%s refused the entry but left the file (stat: %v)", r.name, statErr)
				}
				if got := corrupt.Value() - before; got != 1 {
					t.Fatalf("%s refused the entry; fcache.corrupt_deleted rose by %d, want 1", r.name, got)
				}
				continue
			}
			if statErr != nil {
				t.Fatalf("%s accepted the entry but the file is gone: %v", r.name, statErr)
			}
			if corrupt.Value() != before {
				t.Fatalf("%s accepted the entry but counted a corrupt deletion", r.name)
			}
			if !bytes.Equal(encode(k, payload), data) {
				t.Fatalf("%s accepted a %d-byte payload that does not re-encode to the file bytes", r.name, len(payload))
			}
		}
	})
}
