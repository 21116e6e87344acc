package trace

import (
	"fmt"
	"math"

	"repro/internal/isa"
)

// Memory-layout constants of the synthetic address space.
const (
	// CodeBase is the base address of the instruction stream.
	CodeBase = 0x0040_0000
	// DataBase is the base address of the first data region; successive
	// access patterns occupy disjoint 256 MiB-spaced regions.
	DataBase = 0x1000_0000
	// regionSpacing separates the pattern regions.
	regionSpacing = 1 << 28

	// depRingSize is how far back the generator can create register
	// dependences; distances beyond it fall back to long-range values.
	depRingSize = 256
)

// Generator emits the deterministic instruction stream of one interval of
// one phase. Create one with NewGenerator and drain it with Next; a fixed
// (behaviour, seed) pair always yields the identical stream.
type Generator struct {
	b          PhaseBehavior
	rng        *RNG
	staticSeed uint64

	mixCum      [isa.NumOpClasses]float64 // cumulative normalized mix
	staticPhase float64                   // offset of the op-class layout sequence

	// Program-counter walk.
	pcIdx    int
	codeSize int
	numFuncs int
	stack    []int

	// Register dependence ring: destination register written d
	// instructions ago (0 = wrote nothing).
	ring    [depRingSize]uint8
	ringPos int

	// Hoisted register-spec quantities (constant per generator).
	srcBase int     // integer part of AvgSrcRegs
	srcFrac float64 // fractional part of AvgSrcRegs

	// Memoized op classes: opClassAt is a pure function of the PC index,
	// and hot loops revisit the same few PCs, so a one-byte-per-static-
	// instruction cache removes the float low-discrepancy computation from
	// the steady state. 255 marks an unfilled slot (real classes are
	// < isa.NumOpClasses).
	opCache []uint8

	// Per-static-branch pattern state.
	branches map[int]*branchState

	// Data address streams.
	loadPats  []patternState
	storePats []patternState
	loadCum   []float64
	storeCum  []float64

	emitted uint64
}

type branchState struct {
	period int // pattern period
	takens int // taken outcomes per period
	pos    int // position within period
}

type patternState struct {
	AccessPattern
	base  uint64
	slots uint64 // number of 8-byte slots (power of two for chase)
	cur   uint64
	// chase walk: full-period LCG over slots.
	lcgA, lcgC uint64
}

// NewGenerator builds a generator for one interval. The behaviour is
// validated; per-interval jitter is applied using bits of seed so that two
// intervals of the same phase are similar but not identical.
func NewGenerator(b *PhaseBehavior, seed uint64) (*Generator, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	rng := NewRNG(seed)
	jb := b.jittered(rng)

	g := &Generator{
		b:   jb,
		rng: rng,
		// The static code layout (which PC holds which operation, where
		// calls go, per-branch pattern periods) is a pure function of
		// the behaviour's parameters — NOT of the phase name — so that
		// parameter-identical phases in different benchmarks share their
		// synthetic static code exactly, the way two programs running
		// the same kernel share its loop structure. Jitter varies per
		// interval but never the layout seed.
		staticSeed: b.paramHash(),
		codeSize:   jb.CodeSize,
		branches:   make(map[int]*branchState),
	}
	g.staticPhase = float64(g.staticSeed>>11) / (1 << 53)
	mix, err := jb.Mix.Normalize()
	if err != nil {
		return nil, err
	}
	var cum float64
	for i, w := range mix {
		cum += w
		g.mixCum[i] = cum
	}
	g.numFuncs = g.codeSize / 512
	if g.numFuncs < 1 {
		g.numFuncs = 1
	}
	g.srcBase = int(jb.Reg.AvgSrcRegs)
	g.srcFrac = jb.Reg.AvgSrcRegs - float64(g.srcBase)
	g.opCache = make([]uint8, g.codeSize)
	for i := range g.opCache {
		g.opCache[i] = 255
	}
	g.loadPats, g.loadCum = makePatternStates(jb.Loads, 0)
	g.storePats, g.storeCum = makePatternStates(jb.Stores, len(jb.Loads))
	return g, nil
}

func makePatternStates(ps []AccessPattern, regionOffset int) ([]patternState, []float64) {
	states := make([]patternState, len(ps))
	cum := make([]float64, len(ps))
	var total float64
	for _, p := range ps {
		total += p.Weight
	}
	if total <= 0 {
		total = 1
	}
	var acc float64
	for i, p := range ps {
		acc += p.Weight / total
		cum[i] = acc
		st := patternState{
			AccessPattern: p,
			base:          DataBase + uint64(regionOffset+i)*regionSpacing,
		}
		// Slot count: power of two covering the region, for the
		// chase/random walks.
		slots := uint64(1)
		for slots*8 < p.Region {
			slots <<= 1
		}
		st.slots = slots
		// Full-period LCG over power-of-two modulus: c odd, a = 4k+1.
		st.lcgA = 4*((Hash64(st.base)%slots)/4) + 1
		st.lcgC = Hash64(st.base^0xabcd)%slots | 1
		states[i] = st
	}
	return states, cum
}

// staticBits returns deterministic per-static-instruction random bits: the
// same PC index always maps to the same value within a phase, across
// intervals, which keeps the synthetic "static code" self-consistent.
func (g *Generator) staticBits(pcIdx int, salt uint64) uint64 {
	return Hash64(uint64(pcIdx)*0x9e3779b97f4a7c15 ^ g.staticSeed ^ salt)
}

func pickCum(cum []float64, x float64) int {
	for i, c := range cum {
		if x < c {
			return i
		}
	}
	return len(cum) - 1
}

// opClassAt returns the operation class of the static instruction at
// pcIdx. Classes are laid out along a golden-ratio low-discrepancy
// sequence rather than independent per-PC draws: any run of L consecutive
// static instructions then carries the specified mix with O(1/L)
// discrepancy, so even small hot loops execute the phase's intended
// instruction mix instead of a lumpy sample of it.
func (g *Generator) opClassAt(pcIdx int) isa.OpClass {
	if c := g.opCache[pcIdx]; c != 255 {
		return isa.OpClass(c)
	}
	c := g.opClassSlow(pcIdx)
	g.opCache[pcIdx] = uint8(c)
	return c
}

func (g *Generator) opClassSlow(pcIdx int) isa.OpClass {
	const phi = 0.61803398874989484820
	x := float64(pcIdx)*phi + g.staticPhase
	x -= math.Floor(x)
	for i, c := range g.mixCum {
		if x < c {
			return isa.OpClass(i)
		}
	}
	return isa.OpOther
}

// Next fills ins with the next instruction of the stream. It always
// succeeds; the stream is unbounded.
func (g *Generator) Next(ins *isa.Instruction) {
	pcIdx := g.pcIdx
	op := g.opClassAt(pcIdx)

	*ins = isa.Instruction{
		PC: CodeBase + uint64(pcIdx)*isa.InstrBytes,
		Op: op,
	}

	g.fillRegs(ins)

	switch {
	case op == isa.OpLoad:
		ins.Addr = g.nextAddr(g.loadPats, g.loadCum, pcIdx)
	case op == isa.OpStore:
		ins.Addr = g.nextAddr(g.storePats, g.storeCum, pcIdx)
	case op.IsControl():
		g.fillControl(ins, pcIdx)
	}
	if !op.IsControl() {
		g.advancePC(pcIdx + 1)
	}

	// Record the register write for future dependences (depRingSize is a
	// power of two, so the mask is the modulus).
	g.ringPos = (g.ringPos + 1) & (depRingSize - 1)
	g.ring[g.ringPos] = ins.Dst
	g.emitted++
}

// fillRegs assigns destination and source registers, honouring the phase's
// dependence-distance and register-traffic specification.
func (g *Generator) fillRegs(ins *isa.Instruction) {
	op := ins.Op
	spec := g.b.Reg

	// Destination: stores, control transfers and nops produce no value.
	producer := !(op == isa.OpStore || op.IsControl() || op == isa.OpNop)
	if producer && g.rng.Bernoulli(spec.WriteFraction) {
		ins.Dst = uint8(1 + g.rng.Intn(isa.NumRegs-1))
	}

	// Source count around the target average.
	if op == isa.OpNop {
		return
	}
	n := g.srcBase
	if g.rng.Bernoulli(g.srcFrac) {
		n++
	}
	if n > isa.MaxSrcRegs {
		n = isa.MaxSrcRegs
	}
	ins.NSrc = uint8(n)
	for i := 0; i < n; i++ {
		ins.Src[i] = g.sourceAtDistance(g.sampleDepDist())
	}
}

// sampleDepDist draws a register dependency distance. Short-dependence
// phases (serial codes) use a geometric distribution; long-dependence
// phases (software-pipelined FP loops) use a centered uniform distribution
// with a small local-reuse tail, so their dataflow actually exposes ILP
// instead of being throttled by the geometric distribution's mode at 1.
func (g *Generator) sampleDepDist() int {
	m := g.b.Reg.MeanDepDist
	if m <= 4 {
		return g.rng.Geometric(m)
	}
	if g.rng.Bernoulli(0.12) {
		return g.rng.Geometric(3)
	}
	lo := int(m / 2)
	if lo < 1 {
		lo = 1
	}
	width := int(m)
	if width < 1 {
		width = 1
	}
	return lo + g.rng.Intn(width)
}

// sourceAtDistance returns the register written approximately d
// instructions ago, searching a little further back if that slot wrote
// nothing, and falling back to a random register.
func (g *Generator) sourceAtDistance(d int) uint8 {
	// The ring size is a power of two, so masking the (possibly negative)
	// index is exactly the old non-negative modulus; each probe steps one
	// slot further back.
	limit := 16
	if rest := depRingSize - d; rest < limit {
		limit = rest
	}
	idx := g.ringPos - d
	for probe := 0; probe < limit; probe++ {
		if r := g.ring[(idx-probe)&(depRingSize-1)]; r != 0 {
			return r
		}
	}
	return uint8(1 + g.rng.Intn(isa.NumRegs-1))
}

// nextAddr serves one memory access: the pattern is chosen statically per
// PC (so local-stride behaviour is stable), and the pattern state advances.
func (g *Generator) nextAddr(pats []patternState, cum []float64, pcIdx int) uint64 {
	x := float64(g.staticBits(pcIdx, 0x22)>>11) / (1 << 53)
	p := &pats[pickCum(cum, x)]
	var off uint64
	switch p.Kind {
	case PatternStride:
		off = p.cur
		p.cur += p.Stride
		if p.cur >= p.Region {
			p.cur %= 8 // wrap, keeping alignment phase
		}
	case PatternRandom:
		off = (g.rng.Uint64n(p.slots)) * 8
		if off >= p.Region {
			off %= p.Region &^ 7
		}
	case PatternChase:
		p.cur = (p.cur*p.lcgA + p.lcgC) % p.slots
		off = p.cur * 8
		if off >= p.Region {
			off %= p.Region &^ 7
		}
	}
	return p.base + off
}

// fillControl resolves a control transfer: outcome, target, and the PC walk.
func (g *Generator) fillControl(ins *isa.Instruction, pcIdx int) {
	switch ins.Op {
	case isa.OpBranchCond:
		taken := g.branchOutcome(pcIdx)
		ins.Taken = taken
		if taken {
			target := g.branchTarget(pcIdx)
			ins.Target = CodeBase + uint64(target)*isa.InstrBytes
			g.advancePC(target)
		} else {
			ins.Target = CodeBase + uint64(pcIdx+1)*isa.InstrBytes
			g.advancePC(pcIdx + 1)
		}
	case isa.OpBranchJump:
		// Jumps are modelled as indirect dispatch (switch tables,
		// virtual calls): the target varies per execution. A static
		// target would let a cycle of jump instructions trap the PC
		// forever, since nothing conditional ever breaks the loop.
		target := g.rng.Intn(g.codeSize)
		ins.Taken = true
		ins.Target = CodeBase + uint64(target)*isa.InstrBytes
		g.advancePC(target)
	case isa.OpCall:
		// Call sites mostly target a fixed callee, but one call in ten
		// dispatches dynamically (function pointers, virtual calls).
		// The dynamic share also guarantees escape from degenerate
		// static cycles (a callee that immediately re-executes its own
		// call site would otherwise trap the PC).
		f := int(g.staticBits(pcIdx, 0x44)) % g.numFuncs
		if f < 0 {
			f = -f
		}
		if g.rng.Bernoulli(0.1) {
			f = g.rng.Intn(g.numFuncs)
		}
		target := f * (g.codeSize / g.numFuncs)
		if len(g.stack) < 64 {
			g.stack = append(g.stack, pcIdx+1)
		}
		ins.Taken = true
		ins.Target = CodeBase + uint64(target)*isa.InstrBytes
		g.advancePC(target)
	case isa.OpReturn:
		target := 0
		if n := len(g.stack); n > 0 {
			target = g.stack[n-1]
			g.stack = g.stack[:n-1]
		} else {
			target = g.rng.Intn(g.codeSize)
		}
		ins.Taken = true
		ins.Target = CodeBase + uint64(target)*isa.InstrBytes
		g.advancePC(target)
	}
}

// branchOutcome produces the outcome stream of the static conditional
// branch at pcIdx: a per-branch periodic pattern (loop-like runs of taken
// outcomes) perturbed by noise, or a Bernoulli stream when patterns are
// disabled.
func (g *Generator) branchOutcome(pcIdx int) bool {
	spec := g.b.Branch
	if spec.PatternPeriod == 0 {
		return g.rng.Bernoulli(spec.TakenBias)
	}
	st := g.branches[pcIdx]
	if st == nil {
		// Period is a static property of the branch: 2 .. 2*mean.
		h := g.staticBits(pcIdx, 0x55)
		period := 2 + int(h%uint64(2*spec.PatternPeriod-2+1))
		takens := int(spec.TakenBias*float64(period) + 0.5)
		if takens < 0 {
			takens = 0
		}
		if takens > period {
			takens = period
		}
		st = &branchState{period: period, takens: takens}
		g.branches[pcIdx] = st
	}
	taken := st.pos < st.takens
	st.pos++
	if st.pos >= st.period {
		st.pos = 0
	}
	if spec.NoiseLevel > 0 && g.rng.Bernoulli(spec.NoiseLevel) {
		taken = !taken
	}
	return taken
}

// branchTarget picks where a taken conditional branch goes: mostly a short
// backward jump (a loop), occasionally a short forward skip.
func (g *Generator) branchTarget(pcIdx int) int {
	delta := g.rng.Geometric(12) + 1
	var target int
	if g.rng.Bernoulli(0.8) {
		target = pcIdx - delta
	} else {
		target = pcIdx + delta
	}
	if target < 0 {
		target = 0
	}
	return target
}

func (g *Generator) advancePC(next int) {
	if next >= g.codeSize || next < 0 {
		next = 0
	}
	g.pcIdx = next
}

// Emitted reports how many instructions the generator has produced.
func (g *Generator) Emitted() uint64 { return g.emitted }

// NextBatch fills batch with the next len(batch) instructions of the
// stream. It is the block-granularity form of Next: the stream contents are
// identical for any batching of the same generator.
func (g *Generator) NextBatch(batch []isa.Instruction) {
	for i := range batch {
		g.Next(&batch[i])
	}
}

// DefaultBatchSize is the block size the batched generate→measure kernel
// uses by default: large enough to amortize per-block overhead, small
// enough that a block of instructions (40 bytes each, 20 KiB in all) stays
// in L1d (32-48 KiB on current x86 cores) beside the analyzer's ILP state
// while its passes sweep it.
const DefaultBatchSize = 512

// GenerateIntervalBatches runs a fresh generator for b with the given seed
// over length instructions, filling buf repeatedly and invoking consume for
// each filled block (the final block may be shorter). buf is reused between
// calls — consume must not retain it. A nil or empty buf allocates a
// DefaultBatchSize buffer. The same (b, seed, length) always produce the
// identical stream, for any buffer size.
func GenerateIntervalBatches(b *PhaseBehavior, seed uint64, length int, buf []isa.Instruction, consume func(batch []isa.Instruction)) error {
	if length <= 0 {
		return fmt.Errorf("trace: non-positive interval length %d", length)
	}
	g, err := NewGenerator(b, seed)
	if err != nil {
		return err
	}
	if len(buf) == 0 {
		buf = make([]isa.Instruction, DefaultBatchSize)
	}
	for length > 0 {
		n := len(buf)
		if n > length {
			n = length
		}
		g.NextBatch(buf[:n])
		consume(buf[:n])
		length -= n
	}
	return nil
}

// GenerateInterval runs a fresh generator for b with the given seed over
// length instructions, invoking visit for each. The same arguments always
// produce the identical stream. It is the per-instruction convenience form
// of GenerateIntervalBatches; hot paths should use the block API with
// mica.Analyzer.RecordBatch instead.
func GenerateInterval(b *PhaseBehavior, seed uint64, length int, visit func(*isa.Instruction)) error {
	if length <= 0 {
		return fmt.Errorf("trace: non-positive interval length %d", length)
	}
	g, err := NewGenerator(b, seed)
	if err != nil {
		return err
	}
	var ins isa.Instruction
	for i := 0; i < length; i++ {
		g.Next(&ins)
		visit(&ins)
	}
	return nil
}
