package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func roundTrip(t *testing.T, instrs []isa.Instruction) []isa.Instruction {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range instrs {
		if err := w.Write(&instrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	var out []isa.Instruction
	var ins isa.Instruction
	for {
		err := r.Next(&ins)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ins)
	}
	return out
}

func TestTraceRoundTripGenerated(t *testing.T) {
	b := validBehavior()
	var orig []isa.Instruction
	if err := GenerateInterval(&b, 5, 20000, func(ins *isa.Instruction) {
		orig = append(orig, *ins)
	}); err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, orig)
	if len(got) != len(orig) {
		t.Fatalf("round-tripped %d of %d instructions", len(got), len(orig))
	}
	for i := range orig {
		if got[i] != orig[i] {
			t.Fatalf("instruction %d changed:\n%v\n%v", i, &orig[i], &got[i])
		}
	}
}

func TestTraceEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	var ins isa.Instruction
	if err := r.Next(&ins); err != io.EOF {
		t.Fatalf("empty trace Next = %v, want EOF", err)
	}
}

func TestTraceRejectsGarbage(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("not a trace at all")))
	var ins isa.Instruction
	if err := r.Next(&ins); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("garbage accepted: %v", err)
	}
}

func TestTraceRejectsTruncation(t *testing.T) {
	b := validBehavior()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := GenerateInterval(&b, 7, 100, func(ins *isa.Instruction) {
		if err := w.Write(ins); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cut mid-instruction: at least one prefix in the body must error
	// with ErrBadTrace rather than silently truncate everything.
	sawBad := false
	for cut := 5; cut < len(full); cut += 7 {
		r := NewReader(bytes.NewReader(full[:cut]))
		var ins isa.Instruction
		var err error
		for {
			err = r.Next(&ins)
			if err != nil {
				break
			}
		}
		if errors.Is(err, ErrBadTrace) {
			sawBad = true
		} else if err != io.EOF {
			t.Fatalf("unexpected error %v at cut %d", err, cut)
		}
	}
	if !sawBad {
		t.Fatal("no truncation was ever detected")
	}
}

func TestTraceCount(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	ins := isa.Instruction{Op: isa.OpIntAdd, PC: 0x400000}
	for i := 0; i < 42; i++ {
		if err := w.Write(&ins); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 42 {
		t.Fatalf("Count = %d", w.Count())
	}
}

func TestTraceCompactness(t *testing.T) {
	// Delta encoding should keep loop-heavy traces well under the naive
	// fixed-width footprint (~26 bytes/instruction).
	b := validBehavior()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	const n = 50000
	if err := GenerateInterval(&b, 11, n, func(ins *isa.Instruction) {
		if err := w.Write(ins); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	perInstr := float64(buf.Len()) / n
	if perInstr > 12 {
		t.Fatalf("trace uses %.1f bytes/instruction, expected compact encoding", perInstr)
	}
}

func TestTraceZigzagRoundTrip(t *testing.T) {
	f := func(v int64) bool { return unzig(zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTraceRejectsOversizedNSrc(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	bad := isa.Instruction{Op: isa.OpIntAdd, NSrc: isa.MaxSrcRegs + 1}
	if err := w.Write(&bad); err == nil {
		t.Fatal("oversized NSrc accepted")
	}
}

func TestTraceRejectsOutOfRangeRegisters(t *testing.T) {
	for i, bad := range []isa.Instruction{
		{Op: isa.OpIntAdd, Dst: isa.NumRegs},
		{Op: isa.OpIntAdd, Dst: 200},
		{Op: isa.OpIntAdd, NSrc: 1, Src: [isa.MaxSrcRegs]uint8{isa.NumRegs}},
		{Op: isa.OpIntAdd, NSrc: 3, Src: [isa.MaxSrcRegs]uint8{1, 2, 99}},
		{Op: isa.OpIntAdd, NSrc: isa.MaxSrcRegs + 1},
	} {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Write(&bad); err == nil {
			t.Errorf("case %d: Write accepted %+v", i, bad)
		}
		// A refused instruction leaves the stream untouched.
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), traceMagic[:]) {
			t.Errorf("case %d: refused instruction still wrote %q", i, buf.Bytes())
		}
	}
	// Registers past NSrc are not encoded, so they are not checked.
	var buf bytes.Buffer
	ok := isa.Instruction{Op: isa.OpIntAdd, Dst: isa.NumRegs - 1, NSrc: 1, Src: [isa.MaxSrcRegs]uint8{isa.NumRegs - 1, 200}}
	if err := NewWriter(&buf).Write(&ok); err != nil {
		t.Fatalf("Write rejected %v: %v", &ok, err)
	}
}

func TestTraceReaderRejectsOutOfRangeRegisters(t *testing.T) {
	op := byte(isa.OpIntAdd)
	for _, tc := range []struct {
		name string
		body []byte // after the magic: pc delta, op, dst, nsrc, sources
	}{
		{"dst", []byte{0, op, isa.NumRegs, 0}},
		{"dst and src", []byte{0, op, 200, 1, 99}},
		{"second src", []byte{0, op, 1, 2, 3, isa.NumRegs}},
	} {
		r := NewReader(bytes.NewReader(append(traceMagic[:], tc.body...)))
		var ins isa.Instruction
		if err := r.Next(&ins); !errors.Is(err, ErrBadTrace) {
			t.Errorf("%s: Next = %v, want ErrBadTrace", tc.name, err)
		}
	}
	// The largest register decodes.
	r := NewReader(bytes.NewReader(append(traceMagic[:], 0, op, isa.NumRegs-1, 1, isa.NumRegs-1)))
	var ins isa.Instruction
	if err := r.Next(&ins); err != nil {
		t.Fatalf("Next rejected register %d: %v", isa.NumRegs-1, err)
	}
}
