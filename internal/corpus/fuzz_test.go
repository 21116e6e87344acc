package corpus

// Fuzz targets for the corpus codecs and the query front door. Corpus
// files cross a trust boundary — a corpus directory may be shared
// between machines and users — so the decoders must error on arbitrary
// bytes, never panic or allocate unboundedly, and accepted payloads
// must re-encode and re-decode cleanly. Queries arrive from the CLI and
// the service's request bodies: a request must be answered or refused,
// never panic, and an answered one must encode.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func corpusFuzzSeeds() map[string][][]byte {
	segBytes := encodeSegment(testSegment())
	manBytes := encodeManifest(&manifest{
		nextSeq: 104, nextFile: 2, dim: 3,
		segments: []string{newSegmentName(0), newSegmentName(1)},
		ledger:   []uint64{0x1111, 0x9999},
	})

	// Checksum-valid headers advertising 2^30 elements: the counts must
	// be rejected against the payload size, never allocated.
	segBomb := append([]byte(nil), segBytes[:len(segBytes)-8]...)
	binary.LittleEndian.PutUint32(segBomb[8:], 1<<30)
	segBomb = sealPayload(segBomb)
	manBomb := append([]byte(nil), manBytes[:len(manBytes)-8]...)
	binary.LittleEndian.PutUint32(manBomb[28:], 1<<30) // the segment-name count
	manBomb = sealPayload(manBomb)

	return map[string][][]byte{
		"FuzzCorpusSegment":  {segBytes, segBytes[:12], segBomb, {}},
		"FuzzCorpusManifest": {manBytes, manBytes[:9], manBomb, {}},
	}
}

// queryFuzzSeed is one FuzzCorpusQuery input.
type queryFuzzSeed struct {
	op, pick uint8
	radius   float64
	k, probe int
}

// queryFuzzSeeds covers every op and each radius class: non-finite and
// negative (refused), the default, a tiny and a huge finite one.
var queryFuzzSeeds = []queryFuzzSeed{
	{op: 2, radius: math.NaN()},
	{op: 3, radius: math.Inf(1), pick: 1},
	{op: 2, radius: -1},
	{op: 2, pick: 3},
	{op: 3, radius: 1e-12, pick: 2},
	{op: 2, radius: 0.5, pick: 1},
	{op: 3, radius: 1e300},
	{op: 1, k: 3},
	{op: 1, pick: 1, probe: 1},
	{op: 1, pick: 4, k: -1},
	{op: 0},
	{op: 4},
	{op: 2, pick: 6},
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz. Run with WRITE_FUZZ_CORPUS=1 after changing a codec
// or the query seeds.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}
	seeds := make(map[string][]string)
	for target, entries := range corpusFuzzSeeds() {
		for _, data := range entries {
			seeds[target] = append(seeds[target], fmt.Sprintf("[]byte(%q)\n", data))
		}
	}
	for _, s := range queryFuzzSeeds {
		seeds["FuzzCorpusQuery"] = append(seeds["FuzzCorpusQuery"], fmt.Sprintf(
			"uint8(%d)\nfloat64(%v)\nint(%d)\nint(%d)\nuint8(%d)\n", s.op, s.radius, s.k, s.probe, s.pick))
	}
	for target, entries := range seeds {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, values := range entries {
			path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(path, []byte("go test fuzz v1\n"+values), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func FuzzCorpusSegment(f *testing.F) {
	for _, s := range corpusFuzzSeeds()["FuzzCorpusSegment"] {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeSegment(data)
		if err != nil {
			return
		}
		out := encodeSegment(s)
		if _, err := decodeSegment(out); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
	})
}

func FuzzCorpusManifest(f *testing.F) {
	for _, s := range corpusFuzzSeeds()["FuzzCorpusManifest"] {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		out := encodeManifest(m)
		if _, err := decodeManifest(out); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
	})
}

// fuzzQueryCorpus is FuzzCorpusQuery's fixed corpus: three suites on a
// small grid, enough rows for a partition of several lists, each point
// three times over in different benchmarks and suites (rows i, i+10 and
// i+20), and a centroid placed exactly on an interval.
func fuzzQueryCorpus(f *testing.F) *Corpus {
	b := Batch{Dataset: 0xF, Seed: 1}
	for i := 0; i < 30; i++ {
		suite := []string{"A", "B", "C"}[i%3]
		b.Entries = append(b.Entries, Entry{
			Bench: fmt.Sprintf("%s/b%d", suite, i%4), Suite: suite, Kind: KindInterval, Index: i,
			Vector: []float64{float64(i % 5), float64(i / 5 % 2), float64(i % 10 % 3)},
		})
	}
	b.Entries = append(b.Entries, Entry{Kind: KindCentroid, Vector: b.Entries[4].Vector})
	return openWith(f, b)
}

// FuzzCorpusQuery drives Query with arbitrary parameters: an op
// selector, a radius, k, probe and a benchmark, suite or query-point
// pick. No request may panic; every answered request must encode; and
// every uniqueness and novelty count must equal the exact scan's.
func FuzzCorpusQuery(f *testing.F) {
	for _, s := range queryFuzzSeeds {
		f.Add(s.op, s.radius, s.k, s.probe, s.pick)
	}
	c := fuzzQueryCorpus(f)
	ops := []string{"stats", "nearest", "uniqueness", "novelty", "teleport"}
	benches := []string{"A/b0", "B/b1", "C/b2", "A/b3", "", "Z/ghost", "B/b3"}
	suites := []string{"A", "B", "C", "", "Z"}
	refs := []string{"A/b0#0", "C/b2#14", "B/b1#99", "A/b0"}
	f.Fuzz(func(t *testing.T, op uint8, radius float64, k, probe int, pick uint8) {
		req := QueryRequest{Op: ops[int(op)%len(ops)], Radius: radius, K: k, Probe: probe}
		p := int(pick)
		switch req.Op {
		case "nearest":
			if p%2 == 0 {
				req.Ref = refs[p/2%len(refs)]
			} else {
				req.Vector = []float64{float64(p % 5), float64(p % 3), float64(p%7) * 0.5}
			}
		case "uniqueness":
			req.Bench = benches[p%len(benches)]
		case "novelty":
			req.Suite = suites[p%len(suites)]
		}
		resp, err := c.Query(req)
		if err != nil {
			return
		}
		if err := WriteResponse(io.Discard, resp); err != nil {
			t.Fatalf("%+v: answered, but the answer does not encode: %v", req, err)
		}
		ix := testIndex(t, c)
		count := func(rows []int, skip func(int) bool) int {
			n := 0
			for _, r := range rows {
				if !scanWithin(ix, r, resp.Radius, skip) {
					n++
				}
			}
			return n
		}
		switch req.Op {
		case "uniqueness":
			want := count(ix.byBench[req.Bench], func(i int) bool {
				return ix.entries[i].kind != KindInterval || ix.entries[i].bench == req.Bench
			})
			if resp.Uniqueness.Unique != want {
				t.Fatalf("%+v: %d unique rows, the exact scan finds %d", req, resp.Uniqueness.Unique, want)
			}
		case "novelty":
			skip := func(i int) bool {
				return ix.entries[i].kind != KindInterval || ix.entries[i].suite == req.Suite
			}
			if want := count(ix.bySuite[req.Suite], skip); resp.Novelty.Novel != want {
				t.Fatalf("%+v: %d novel rows, the exact scan finds %d", req, resp.Novelty.Novel, want)
			}
			for _, ur := range resp.Novelty.Benches {
				if want := count(ix.byBench[ur.Bench], skip); ur.Unique != want {
					t.Fatalf("%+v: %s has %d novel rows, the exact scan finds %d", req, ur.Bench, ur.Unique, want)
				}
			}
		}
	})
}
