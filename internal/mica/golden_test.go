package mica

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// The golden-vector fixture pins the measurement kernel: for a few
// (behavior, seed, length) triples it records the exact 69-element vectors
// the kernel produced, bit for bit. Any rewrite of the generator, the
// analyzer, or its sub-models (ILP windows, PPM groups, hash tables) must
// keep reproducing them — at every batch size — or the refactor changed
// observable behaviour. Regenerate deliberately with:
//
//	go test ./internal/mica -run TestGoldenVectors -update
var updateGolden = flag.Bool("update", false, "rewrite the golden-vector fixture from the current kernel")

const goldenPath = "testdata/golden_vectors.json"

// goldenCase is one pinned (behavior, seed, length) triple.
type goldenCase struct {
	Behavior string    `json:"behavior"`
	Seed     uint64    `json:"seed"`
	Length   int       `json:"length"`
	Vector   []float64 `json:"vector"`
}

// goldenBehaviors returns a small set of phases chosen to exercise every
// kernel path: periodic and Bernoulli branches, all three access-pattern
// kinds, short and long dependence distances, int and FP mixes.
func goldenBehaviors() map[string]*trace.PhaseBehavior {
	intBranchy := &trace.PhaseBehavior{
		Name:     "golden/int-branchy",
		Mix:      trace.BaseMix(),
		CodeSize: 4096,
		Branch:   trace.BranchSpec{TakenBias: 0.7, PatternPeriod: 8, NoiseLevel: 0.02},
		Reg:      trace.RegDepSpec{MeanDepDist: 3, AvgSrcRegs: 1.6, WriteFraction: 0.7},
		Loads: []trace.AccessPattern{
			{Kind: trace.PatternStride, Weight: 0.7, Region: 1 << 18, Stride: 8},
			{Kind: trace.PatternRandom, Weight: 0.3, Region: 1 << 22},
		},
		Stores: []trace.AccessPattern{
			{Kind: trace.PatternStride, Weight: 1, Region: 1 << 16, Stride: 16},
		},
		Jitter: 0.1,
	}
	fpStream := &trace.PhaseBehavior{
		Name:     "golden/fp-stream",
		Mix:      trace.FPBaseMix(),
		CodeSize: 1024,
		Branch:   trace.BranchSpec{TakenBias: 0.95, PatternPeriod: 32, NoiseLevel: 0},
		Reg:      trace.RegDepSpec{MeanDepDist: 20, AvgSrcRegs: 2.1, WriteFraction: 0.85},
		Loads: []trace.AccessPattern{
			{Kind: trace.PatternStride, Weight: 1, Region: 1 << 24, Stride: 8},
		},
		Stores: []trace.AccessPattern{
			{Kind: trace.PatternStride, Weight: 1, Region: 1 << 24, Stride: 8},
		},
		Jitter: 0,
	}
	pointerChase := &trace.PhaseBehavior{
		Name:     "golden/pointer-chase",
		Mix:      trace.BaseMix().Set(isa.OpLoad, 0.35).Set(isa.OpBranchCond, 0.18),
		CodeSize: 16384,
		Branch:   trace.BranchSpec{TakenBias: 0.5, PatternPeriod: 0, NoiseLevel: 0},
		Reg:      trace.RegDepSpec{MeanDepDist: 1.5, AvgSrcRegs: 1.2, WriteFraction: 0.55},
		Loads: []trace.AccessPattern{
			{Kind: trace.PatternChase, Weight: 0.8, Region: 1 << 20},
			{Kind: trace.PatternRandom, Weight: 0.2, Region: 1 << 26},
		},
		Stores: []trace.AccessPattern{
			{Kind: trace.PatternRandom, Weight: 1, Region: 1 << 20},
		},
		Jitter: 0.25,
	}
	return map[string]*trace.PhaseBehavior{
		intBranchy.Name:   intBranchy,
		fpStream.Name:     fpStream,
		pointerChase.Name: pointerChase,
	}
}

// goldenTriples enumerates the pinned (behavior, seed, length) triples.
func goldenTriples() []goldenCase {
	var out []goldenCase
	for _, name := range []string{"golden/int-branchy", "golden/fp-stream", "golden/pointer-chase"} {
		for _, sl := range []struct {
			seed   uint64
			length int
		}{{1, 5000}, {42, 20000}, {987654321, 4097}} {
			out = append(out, goldenCase{Behavior: name, Seed: sl.seed, Length: sl.length})
		}
	}
	return out
}

// characterizeGolden runs one triple through the kernel with the given
// batch size (batch <= 0 selects the scalar per-instruction path).
func characterizeGolden(t *testing.T, a *Analyzer, c goldenCase, batch int) []float64 {
	t.Helper()
	beh, ok := goldenBehaviors()[c.Behavior]
	if !ok {
		t.Fatalf("unknown golden behavior %q", c.Behavior)
	}
	a.Reset()
	var err error
	if batch <= 0 {
		err = trace.GenerateInterval(beh, c.Seed, c.Length, func(ins *isa.Instruction) {
			a.Record(ins)
		})
	} else {
		buf := make([]isa.Instruction, batch)
		err = trace.GenerateIntervalBatches(beh, c.Seed, c.Length, buf, func(block []isa.Instruction) {
			a.RecordBatch(block)
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	if a.Total() != uint64(c.Length) {
		t.Fatalf("%s seed %d: recorded %d instructions, want %d", c.Behavior, c.Seed, a.Total(), c.Length)
	}
	return a.Vector()
}

func TestGoldenVectors(t *testing.T) {
	cases := goldenTriples()
	if *updateGolden {
		a := NewAnalyzer()
		for i := range cases {
			cases[i].Vector = characterizeGolden(t, a, cases[i], 0)
		}
		blob, err := json.MarshalIndent(cases, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d vectors", goldenPath, len(cases))
		return
	}

	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden fixture (regenerate with -update): %v", err)
	}
	var want []goldenCase
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Fatalf("fixture has %d cases, test defines %d (regenerate with -update)", len(want), len(cases))
	}

	// Batch size 0 is the scalar Record path; the rest drive RecordBatch at
	// sizes spanning smaller-than, equal-to, and larger-than the interval's
	// block structure (4097 makes the final block a single instruction),
	// plus the shipped default, whatever it is.
	batchSizes := []int{0, 1, 7, 64, 4096, 8192, trace.DefaultBatchSize}
	a := NewAnalyzer()
	for _, w := range want {
		for _, batch := range batchSizes {
			got := characterizeGolden(t, a, w, batch)
			if len(got) != len(w.Vector) {
				t.Fatalf("%s seed %d batch %d: vector length %d, want %d",
					w.Behavior, w.Seed, batch, len(got), len(w.Vector))
			}
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(w.Vector[j]) {
					t.Errorf("%s seed %d length %d batch %d: metric %d (%s) = %v, want %v (bit-exact)",
						w.Behavior, w.Seed, w.Length, batch, j, MetricNames()[j], got[j], w.Vector[j])
				}
			}
		}
	}
}

// TestGoldenVectorsFreshAnalyzer re-runs one fixture triple on a brand-new
// analyzer per batch size, guarding against Reset-dependent state leaks
// (a reused analyzer that only passes because Reset hides missing init).
func TestGoldenVectorsFreshAnalyzer(t *testing.T) {
	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Skipf("no golden fixture: %v", err)
	}
	var want []goldenCase
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	w := want[0]
	for _, batch := range []int{0, 1, 4096, trace.DefaultBatchSize} {
		got := characterizeGolden(t, NewAnalyzer(), w, batch)
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(w.Vector[j]) {
				t.Fatalf("fresh analyzer, batch %d: metric %d = %v, want %v", batch, j, got[j], w.Vector[j])
			}
		}
	}
}

var benchSinkVec []float64

func BenchmarkAnalyzerRecordBatch(b *testing.B) {
	beh := goldenBehaviors()["golden/int-branchy"]
	const n = 4096
	buf := make([]isa.Instruction, n)
	g, err := trace.NewGenerator(beh, 1)
	if err != nil {
		b.Fatal(err)
	}
	g.NextBatch(buf)
	a := NewAnalyzer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.RecordBatch(buf)
	}
	b.ReportMetric(float64(b.N)*n/b.Elapsed().Seconds(), "instr/s")
}
