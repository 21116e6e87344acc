package core

// Fuzz targets for the engine's persisted-artifact decoders. These
// payloads cross trust boundaries — disk (fcache entries) and network
// (shard RPC payloads) — so the decoders must error on arbitrary bytes,
// never panic or allocate unboundedly, and accepted payloads must
// round-trip bit-identically.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/mica"
	"repro/internal/stats"
	"repro/internal/trace"
)

// fuzzRegistry is miniRegistry without the *testing.T, usable from seed
// construction in fuzz targets.
func fuzzRegistry() *bench.Registry {
	reg, err := bench.NewRegistry([]*bench.Benchmark{{
		Name: "s1", Suite: "SuiteA", PaperIntervals: 100,
		Phases: []bench.Phase{{Weight: 1, Behavior: trace.PhaseBehavior{
			Name: "s1/p", Mix: trace.BaseMix(), CodeSize: 800,
			Branch: trace.BranchSpec{TakenBias: 0.5},
			Reg:    trace.RegDepSpec{MeanDepDist: 2, AvgSrcRegs: 1.4, WriteFraction: 0.7},
			Loads:  []trace.AccessPattern{{Kind: trace.PatternRandom, Weight: 1, Region: 1 << 22}},
			Stores: []trace.AccessPattern{{Kind: trace.PatternRandom, Weight: 1, Region: 1 << 20}},
			Jitter: 0.05,
		}}},
	}})
	if err != nil {
		panic(err)
	}
	return reg
}

func artifactFuzzSeeds() map[string][][]byte {
	reg := fuzzRegistry()
	b := reg.All()[0]

	vectors := stats.NewMatrix(2, mica.NumMetrics)
	for i := range vectors.Data {
		vectors.Data[i] = float64(i) / 3
	}
	shard := &shardArtifact{
		benches:      []shardBench{{id: b.ID(), indices: []int{0, 1}, vectors: vectors}},
		instructions: 3000,
	}
	shardBytes, _ := shard.MarshalBinary()

	summary := &summaryArtifact{reg: reg, phases: []PhaseSummary{{
		Cluster: 1, Weight: 0.5, Kind: 0,
		Representative: IntervalRef{Bench: b, Index: 1, Total: 12},
		RepVector:      []float64{1, 2, 3},
		Composition: []BenchShare{{
			BenchID: b.ID(), Suite: b.Suite, ClusterShare: 1, BenchmarkFraction: 0.2,
		}},
	}}}
	summaryBytes, _ := summary.MarshalBinary()

	timeline := &timelineArtifact{t: Timeline{
		BenchID: b.ID(), NumPhases: 2, Transitions: 1,
		Phases: []int{0, 1}, Vectors: vectors,
	}}
	timelineBytes, _ := timeline.MarshalBinary()

	// A version-correct shard header advertising 2^30 benchmarks: the
	// count must be rejected against the payload size, not allocated.
	bomb := append([]byte(nil), shardBytes[:4]...)
	bomb = append(bomb, 0, 0, 0, 0x40, 1, 2, 3)

	// A valid baseline manifest, a truncated one, and one in the earlier
	// format (today's layout plus a 24-byte tail).
	manifestBytes, _ := testManifest().MarshalBinary()
	return map[string][][]byte{
		"FuzzShardArtifact":    {shardBytes, shardBytes[:11], bomb, {}},
		"FuzzSummaryArtifact":  {summaryBytes, summaryBytes[:7], {0, 0, 0, 0x40, 1}, {}},
		"FuzzTimelineArtifact": {timelineBytes, timelineBytes[:6], {}},
		"FuzzBaselineManifest": {manifestBytes, manifestBytes[:len(manifestBytes)-5], oldFormatManifest(testManifest())},
	}
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz. Run with WRITE_FUZZ_CORPUS=1 after changing a codec.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}
	for target, entries := range artifactFuzzSeeds() {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, data := range entries {
			path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func FuzzShardArtifact(f *testing.F) {
	for _, s := range artifactFuzzSeeds()["FuzzShardArtifact"] {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var a shardArtifact
		if err := a.UnmarshalBinary(data); err != nil {
			return
		}
		out, err := a.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if err := new(shardArtifact).UnmarshalBinary(out); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
	})
}

func FuzzSummaryArtifact(f *testing.F) {
	for _, s := range artifactFuzzSeeds()["FuzzSummaryArtifact"] {
		f.Add(s)
	}
	reg := fuzzRegistry()
	f.Fuzz(func(t *testing.T, data []byte) {
		a := summaryArtifact{reg: reg}
		if err := a.UnmarshalBinary(data); err != nil {
			return
		}
		out, err := a.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		b := summaryArtifact{reg: reg}
		if err := b.UnmarshalBinary(out); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
	})
}

func FuzzTimelineArtifact(f *testing.F) {
	for _, s := range artifactFuzzSeeds()["FuzzTimelineArtifact"] {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var a timelineArtifact
		if err := a.UnmarshalBinary(data); err != nil {
			return
		}
		out, err := a.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if err := new(timelineArtifact).UnmarshalBinary(out); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
	})
}

func FuzzBaselineManifest(f *testing.F) {
	for _, s := range artifactFuzzSeeds()["FuzzBaselineManifest"] {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m baselineManifest
		if err := m.UnmarshalBinary(data); err != nil {
			return
		}
		out, err := m.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatal("accepted manifest does not re-encode to its own bytes")
		}
	})
}
