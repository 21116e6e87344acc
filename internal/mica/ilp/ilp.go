// Package ilp measures the inherent instruction-level parallelism of an
// instruction stream on an idealized processor: perfect caches, perfect
// branch prediction, unlimited functional units — the only constraints are
// true register data dependences and a finite window of in-flight
// instructions. This matches the four MICA "ILP" characteristics (IPC for
// window sizes 32, 64, 128 and 256).
package ilp

import (
	"fmt"

	"repro/internal/isa"
)

// StandardWindows are the window sizes of the paper's Table 1.
var StandardWindows = []int{32, 64, 128, 256}

// lanes is how many window models one quad schedules side by side.
const lanes = 4

// quad schedules up to four window sizes in lock step: each table entry
// holds one value per lane, so an instruction's operands are looked up
// once for all four windows and the four dependency chains interleave.
// Lanes beyond the configured windows repeat lane 0's size; their results
// are never read.
type quad struct {
	size [lanes]uint64
	// ready is the cycle each register value is available, per lane. The
	// spare last row absorbs ZeroReg writes in the batch pass; no source
	// reads it, and ready[ZeroReg] itself stays 0.
	ready [isa.NumRegs + 1][lanes]int64
	// ring holds the completion cycles of the last len(ring) instructions,
	// indexed by instruction number modulo len(ring), a power of two at
	// least every lane's size: the instruction leaving a window of size s
	// as instruction n enters is n - s, still held.
	ring     [][lanes]int64
	lastDone [lanes]int64 // latest completion cycle seen
}

func newQuad(sizes []int) quad {
	q := quad{}
	longest := 0
	for k := range q.size {
		s := sizes[0]
		if k < len(sizes) {
			s = sizes[k]
		}
		q.size[k] = uint64(s)
		longest = max(longest, s)
	}
	n := 1
	for n < longest {
		n <<= 1
	}
	q.ring = make([][lanes]int64, n)
	return q
}

// record schedules instruction number n (counting from 0 since the last
// Reset) through every lane's window.
func (q *quad) record(ins *isa.Instruction, n uint64) {
	m := uint64(len(q.ring) - 1)
	for k := range q.size {
		// Issue no earlier than when the instruction leaving the window
		// completed (a full window stalls dispatch), and no earlier than
		// all source operands are ready.
		start := int64(0)
		if n >= q.size[k] {
			start = q.ring[(n-q.size[k])&m][k]
		}
		for _, r := range ins.Sources() {
			if r == isa.ZeroReg {
				continue
			}
			if t := q.ready[r][k]; t > start {
				start = t
			}
		}
		done := start + int64(ins.Op.Latency())
		if ins.WritesReg() {
			q.ready[ins.Dst][k] = done
		}
		q.ring[n&m][k] = done
		if done > q.lastDone[k] {
			q.lastDone[k] = done
		}
	}
}

// recordBatch schedules instructions n, n+1, ... of batch, identical to
// calling record on each. It decodes each instruction's operands once for
// all lanes and is branch-free per lane. That is exact because record's
// branches only skip no-op work: the ring slot of an instruction that has
// not yet entered a window still holds its Reset value 0, sources past
// NSrc are read as ZeroReg, whose ready cycle stays 0, and a ZeroReg
// destination writes the spare row ready[NumRegs].
func (q *quad) recordBatch(batch []isa.Instruction, n uint64) {
	ring := q.ring
	m := uint64(len(ring) - 1)
	s0, s1, s2, s3 := q.size[0], q.size[1], q.size[2], q.size[3]
	l0, l1, l2, l3 := q.lastDone[0], q.lastDone[1], q.lastDone[2], q.lastDone[3]
	for j := range batch {
		ins := &batch[j]
		// Masking with NumRegs-1 is an identity (registers are always
		// < NumRegs) that lets the compiler drop the bounds checks.
		r0 := ins.Src[0] & (isa.NumRegs - 1)
		r1 := ins.Src[1] & (isa.NumRegs - 1)
		r2 := ins.Src[2] & (isa.NumRegs - 1)
		if ins.NSrc < 1 {
			r0 = 0
		}
		if ins.NSrc < 2 {
			r1 = 0
		}
		if ins.NSrc < 3 {
			r2 = 0
		}
		d := ins.Dst & (isa.NumRegs - 1)
		if d == isa.ZeroReg {
			d = isa.NumRegs
		}
		lat := int64(ins.Op.Latency())
		a, b, c := &q.ready[r0], &q.ready[r1], &q.ready[r2]
		t0 := max(ring[(n-s0)&m][0], a[0], b[0], c[0]) + lat
		t1 := max(ring[(n-s1)&m][1], a[1], b[1], c[1]) + lat
		t2 := max(ring[(n-s2)&m][2], a[2], b[2], c[2]) + lat
		t3 := max(ring[(n-s3)&m][3], a[3], b[3], c[3]) + lat
		// Stored lane by lane: an array value is built on the stack and
		// copied with 16-byte moves that cannot forward from its 8-byte
		// stores, which measured about 4% slower.
		dr, rr := &q.ready[d], &ring[n&m]
		dr[0], dr[1], dr[2], dr[3] = t0, t1, t2, t3
		rr[0], rr[1], rr[2], rr[3] = t0, t1, t2, t3
		l0, l1, l2, l3 = max(l0, t0), max(l1, t1), max(l2, t2), max(l3, t3)
		n++
	}
	q.lastDone = [lanes]int64{l0, l1, l2, l3}
}

func (q *quad) reset() {
	clear(q.ready[:])
	clear(q.ring)
	q.lastDone = [lanes]int64{}
}

// Analyzer measures ideal IPC for a set of window sizes simultaneously,
// scheduling them four at a time in quads.
type Analyzer struct {
	quads   []quad
	windows int    // configured window count
	count   uint64 // instructions recorded since the last Reset
}

// NewAnalyzer builds an analyzer for the given window sizes (typically
// StandardWindows).
func NewAnalyzer(windows []int) (*Analyzer, error) {
	if len(windows) == 0 {
		return nil, fmt.Errorf("ilp: no window sizes")
	}
	for _, w := range windows {
		if w <= 0 {
			return nil, fmt.Errorf("ilp: non-positive window size %d", w)
		}
	}
	a := &Analyzer{windows: len(windows)}
	for i := 0; i < len(windows); i += lanes {
		a.quads = append(a.quads, newQuad(windows[i:min(i+lanes, len(windows))]))
	}
	return a, nil
}

// Record schedules one instruction in every window model.
func (a *Analyzer) Record(ins *isa.Instruction) {
	for i := range a.quads {
		a.quads[i].record(ins, a.count)
	}
	a.count++
}

// RecordBatch schedules a block of instructions, identical to calling
// Record on each. It runs instruction-major: every window advances by one
// instruction before the next is decoded, so the windows' dependency
// chains overlap instead of running back to back, and all their state
// stays resident in L1.
func (a *Analyzer) RecordBatch(batch []isa.Instruction) {
	for i := range a.quads {
		a.quads[i].recordBatch(batch, a.count)
	}
	a.count += uint64(len(batch))
}

// IPC returns the achieved ideal IPC per configured window, in the order
// the windows were given.
func (a *Analyzer) IPC() []float64 {
	out := make([]float64, a.windows)
	for i := range out {
		if last := a.quads[i/lanes].lastDone[i%lanes]; a.count > 0 && last > 0 {
			out[i] = float64(a.count) / float64(last)
		}
	}
	return out
}

// Reset clears all scheduling state.
func (a *Analyzer) Reset() {
	for i := range a.quads {
		a.quads[i].reset()
	}
	a.count = 0
}
