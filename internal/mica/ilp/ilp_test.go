package ilp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/isa"
)

func mustAnalyzer(t *testing.T, windows []int) *Analyzer {
	t.Helper()
	a, err := NewAnalyzer(windows)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewAnalyzerRejectsBadWindows(t *testing.T) {
	if _, err := NewAnalyzer(nil); err == nil {
		t.Fatal("empty window list accepted")
	}
	if _, err := NewAnalyzer([]int{0}); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := NewAnalyzer([]int{-4}); err == nil {
		t.Fatal("negative window accepted")
	}
}

func TestSerialChainIPCIsOne(t *testing.T) {
	a := mustAnalyzer(t, []int{32, 256})
	// Every instruction reads the register the previous one wrote.
	for i := 0; i < 10000; i++ {
		ins := isa.Instruction{Op: isa.OpIntAdd, Dst: 1, Src: [isa.MaxSrcRegs]uint8{1}, NSrc: 1}
		a.Record(&ins)
	}
	for _, ipc := range a.IPC() {
		if math.Abs(ipc-1) > 0.01 {
			t.Fatalf("serial chain IPC = %v, want ~1", ipc)
		}
	}
}

func TestIndependentStreamIPCEqualsWindow(t *testing.T) {
	// With no dependences and unit latency, dispatch is limited only by
	// the window: IPC converges to the window size.
	a := mustAnalyzer(t, []int{32, 64})
	for i := 0; i < 64000; i++ {
		ins := isa.Instruction{Op: isa.OpIntAdd, Dst: 0} // no dst: no deps ever
		a.Record(&ins)
	}
	ipcs := a.IPC()
	if math.Abs(ipcs[0]-32) > 1 {
		t.Fatalf("window-32 IPC = %v, want ~32", ipcs[0])
	}
	if math.Abs(ipcs[1]-64) > 2 {
		t.Fatalf("window-64 IPC = %v, want ~64", ipcs[1])
	}
}

func TestDistanceLimitedChain(t *testing.T) {
	// A dependence spacing of d with unit latency yields IPC ~ d when d
	// is far below the window size.
	const d = 8
	a := mustAnalyzer(t, []int{256})
	for i := 0; i < 80000; i++ {
		reg := uint8(1 + i%d)
		ins := isa.Instruction{Op: isa.OpIntAdd, Dst: reg, Src: [isa.MaxSrcRegs]uint8{reg}, NSrc: 1}
		a.Record(&ins)
	}
	ipc := a.IPC()[0]
	if math.Abs(ipc-d) > 0.5 {
		t.Fatalf("distance-%d chain IPC = %v, want ~%d", d, ipc, d)
	}
}

func TestWindowMonotonicity(t *testing.T) {
	// IPC can never decrease with a larger window on the same stream.
	a := mustAnalyzer(t, []int{32, 64, 128, 256})
	x := uint64(7)
	for i := 0; i < 50000; i++ {
		x = x*6364136223846793005 + 1
		reg := uint8(1 + x%60)
		src := uint8(1 + (x>>8)%60)
		ins := isa.Instruction{Op: isa.OpIntAdd, Dst: reg, Src: [isa.MaxSrcRegs]uint8{src}, NSrc: 1}
		a.Record(&ins)
	}
	ipcs := a.IPC()
	for i := 1; i < len(ipcs); i++ {
		if ipcs[i] < ipcs[i-1]-1e-9 {
			t.Fatalf("IPC not monotone in window size: %v", ipcs)
		}
	}
}

func TestZeroRegNeverCreatesDependence(t *testing.T) {
	a := mustAnalyzer(t, []int{32})
	for i := 0; i < 32000; i++ {
		ins := isa.Instruction{Op: isa.OpIntAdd, Dst: 0, Src: [isa.MaxSrcRegs]uint8{isa.ZeroReg}, NSrc: 1}
		a.Record(&ins)
	}
	if ipc := a.IPC()[0]; math.Abs(ipc-32) > 1 {
		t.Fatalf("zero-reg stream IPC = %v, want window-limited ~32", ipc)
	}
}

func TestEmptyIPCIsZero(t *testing.T) {
	a := mustAnalyzer(t, []int{32})
	if got := a.IPC()[0]; got != 0 {
		t.Fatalf("empty analyzer IPC = %v", got)
	}
}

func TestReset(t *testing.T) {
	a := mustAnalyzer(t, []int{32})
	ins := isa.Instruction{Op: isa.OpIntAdd, Dst: 1, Src: [isa.MaxSrcRegs]uint8{1}, NSrc: 1}
	for i := 0; i < 100; i++ {
		a.Record(&ins)
	}
	a.Reset()
	if got := a.IPC()[0]; got != 0 {
		t.Fatalf("IPC after Reset = %v", got)
	}
	// Post-reset behaviour identical to a fresh analyzer.
	for i := 0; i < 1000; i++ {
		a.Record(&isa.Instruction{Op: isa.OpIntAdd, Dst: 0})
	}
	if got := a.IPC()[0]; math.Abs(got-32) > 2 {
		t.Fatalf("IPC after Reset and refill = %v", got)
	}
}

func TestStandardWindows(t *testing.T) {
	want := []int{32, 64, 128, 256}
	if len(StandardWindows) != len(want) {
		t.Fatalf("StandardWindows = %v", StandardWindows)
	}
	for i, w := range want {
		if StandardWindows[i] != w {
			t.Fatalf("StandardWindows = %v, want %v", StandardWindows, want)
		}
	}
}

// randomStream returns n instructions with random op classes, source
// counts and registers, the zero register included. Source slots past
// NSrc hold junk, which both paths must ignore.
func randomStream(rng *rand.Rand, n int) []isa.Instruction {
	out := make([]isa.Instruction, n)
	reg := func() uint8 {
		if rng.Intn(5) == 0 {
			return isa.ZeroReg
		}
		// Mostly a few hot registers, so short dependences are common.
		if rng.Intn(2) == 0 {
			return uint8(1 + rng.Intn(4))
		}
		return uint8(rng.Intn(isa.NumRegs))
	}
	for i := range out {
		ins := &out[i]
		ins.Op = isa.OpClass(rng.Intn(isa.NumOpClasses))
		ins.Dst = reg()
		ins.NSrc = uint8(rng.Intn(isa.MaxSrcRegs + 1))
		for s := range ins.Src {
			if s < int(ins.NSrc) {
				ins.Src[s] = reg()
			} else {
				ins.Src[s] = uint8(rng.Intn(256))
			}
		}
	}
	return out
}

// TestRecordBatchMatchesRecord is the property backing RecordBatch: for
// any stream, any window set NewAnalyzer accepts and any chunking, the
// batch path reports IPCs bit-identical to per-instruction Record — also
// when the two are interleaved on one analyzer, since they share state.
func TestRecordBatchMatchesRecord(t *testing.T) {
	windowSets := [][]int{
		StandardWindows,
		{1, 3, 32, 100, 256},
		{5},
		{256, 32, 7, 7},
		{1, 2, 3, 4, 5, 6, 7, 8, 9},
		{1000, 33},
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		windows := windowSets[trial%len(windowSets)]
		stream := randomStream(rng, 1+rng.Intn(3000))
		interleave := trial%3 == 2
		scalar := mustAnalyzer(t, windows)
		batched := mustAnalyzer(t, windows)
		for round := 0; round < 2; round++ {
			// The second round reuses both analyzers after Reset.
			scalar.Reset()
			batched.Reset()
			for i := range stream {
				scalar.Record(&stream[i])
			}
			for lo := 0; lo < len(stream); {
				hi := min(len(stream), lo+rng.Intn(700))
				if interleave && rng.Intn(2) == 0 {
					for i := lo; i < hi; i++ {
						batched.Record(&stream[i])
					}
				} else {
					batched.RecordBatch(stream[lo:hi])
				}
				lo = hi
			}
			want, got := scalar.IPC(), batched.IPC()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d round %d windows %v interleaved %v: window %d IPC %v batched, %v scalar",
						trial, round, windows, interleave, windows[i], got[i], want[i])
				}
			}
		}
	}
}
