package trace

// Native fuzz target for the binary trace decoder. The contract:
// arbitrary bytes decode to a prefix of well-formed instructions followed
// by io.EOF or ErrBadTrace, never a panic — traces come from user disks
// (micastat -trace), and every instruction the decoder accepts must be
// safe to hand to the MICA analyzer, on the scalar and the batch path
// alike.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/isa"
	"repro/internal/mica"
)

// fuzzSeeds returns the seed corpus: an encoded generated trace, its
// truncation, hand-made single instructions (valid and out of range) and
// structurally hostile headers.
func fuzzSeeds(t interface{ Fatal(args ...any) }) map[string][][]byte {
	b := validBehavior()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := GenerateInterval(&b, 3, 40, func(ins *isa.Instruction) {
		if err := w.Write(ins); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	gen := buf.Bytes()
	one := func(body ...byte) []byte { return append(traceMagic[:], body...) }
	add, load, br := byte(isa.OpIntAdd), byte(isa.OpLoad), byte(isa.OpBranchCond)
	return map[string][][]byte{
		"FuzzTraceReader": {
			gen,
			gen[:len(gen)/2],
			one(8, add, 5, 2, 3, 4),
			one(8, load, 1, 1, 2, 0x80, 0x01),
			one(8, br, 0, 1, 7, 1, 0x90, 0x03),
			one(0, add, 200, 1, 99),
			one(0, add, 1, 4, 1, 2, 3, 4),
			one(0, 0xff, 1, 0),
			one(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
			traceMagic[:],
			[]byte("MTR"),
			[]byte("not a trace"),
			{},
		},
	}
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz. Run with WRITE_FUZZ_CORPUS=1 after changing the codec.
func TestWriteFuzzCorpus(t *testing.T) {
	writeFuzzCorpus(t, fuzzSeeds(t))
}

// writeFuzzCorpus is shared by every package's corpus test (duplicated
// locally; test helpers cannot be imported across packages).
func writeFuzzCorpus(t *testing.T, seeds map[string][][]byte) {
	t.Helper()
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}
	for target, entries := range seeds {
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

func FuzzTraceReader(f *testing.F) {
	for _, s := range fuzzSeeds(f)["FuzzTraceReader"] {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		scalar := mica.NewAnalyzer()
		var decoded []isa.Instruction
		for {
			var ins isa.Instruction
			err := r.Next(&ins)
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrBadTrace) {
					t.Fatalf("Next: %v, want io.EOF or ErrBadTrace", err)
				}
				break
			}
			scalar.Record(&ins)
			decoded = append(decoded, ins)
		}
		batched := mica.NewAnalyzer()
		batched.RecordBatch(decoded)
		want, got := scalar.Vector(), batched.Vector()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("metric %d: RecordBatch %v, Record %v", i, got[i], want[i])
			}
		}
	})
}
