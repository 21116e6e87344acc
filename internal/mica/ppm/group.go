package ppm

import (
	"fmt"
	"sort"
	"sync"
)

// Outcome is one resolved conditional branch, the unit of work for
// RecordAll: collecting a batch of outcomes and replaying it through each
// group in turn keeps that group's tables hot in cache for the whole
// batch instead of cycling every group's working set per instruction.
type Outcome struct {
	PC    uint64
	Taken bool
}

// Group evaluates one predictor variant (history scope x table scope) at
// several maximum history lengths simultaneously. Because a PPM predictor
// with maximum history H uses exactly the order-0..H frequency tables of
// the H'-history predictor (H' >= H) of the same variant, the group
// maintains one set of tables at the longest history and answers every
// configured length from it — identical results to independent Predictor
// instances at a fraction of the cost.
//
// The group never allocates the multi-megabyte direct-mapped slab the
// predictor's tables describe unless it must: one interval touches a few
// thousand distinct entries out of ~200K slots, so the slab's cache
// behavior is dreadful (every access lands on its own cache line, 4 live
// bytes out of 64). Which compact layout it uses instead follows from its
// construction parameters:
//
//   - Dense (global tables, longest history <= denseMaxHist: GAg, PAg).
//     The table index depends on (order, context) alone, so at most
//     2^(denseMaxHist+1)-1 distinct indices exist. Each gets one packed
//     counter in a dense array of at most 32 KiB, addressed through a
//     process-wide, read-only remap from (order, context) to counter
//     slot. Contexts whose direct-mapped indices collide share a slot.
//   - Map (per-address tables, or longer histories: GAs, PAs). The branch
//     address is part of the index, so entries live in a small
//     open-addressing hash map keyed by the direct-mapped index (order <<
//     tableBits | hashed context), packed 8 bytes apiece into a table
//     that fits in L2. If an interval overflows maxSlots the group spills
//     the map into a real slab and finishes the interval there.
//
// Either way two contexts share an entry if and only if they produce the
// same direct-mapped index, so aliasing — and every result — is
// bit-identical to the slab.
type Group struct {
	histScope  Scope
	tableScope Scope
	lengths    []int // sorted ascending
	maxHist    int

	mask      uint64
	tableBits uint

	// Dense layout: the order-o context ctx's entry is
	// counters[remap[1<<o|ctx]]. remap is shared between groups; nil
	// selects the map layout.
	remap    []uint16
	counters []uint32

	// Map layout: slot = idx<<32 | entry. A slot is empty iff it is zero —
	// every stored entry has total >= 1, and a zero entry is semantically
	// identical to an absent one. Grown by doubling at 50% load.
	slots  []uint64
	nslots int
	// maxSlots caps map growth; exceeding it spills to the slab. A field
	// (not a constant) so tests can force the spill path cheaply.
	maxSlots int

	// Spill mode: the direct-mapped slab, allocated on first spill and
	// kept for later spilling intervals. inSlab marks the current
	// interval as spilled.
	slab   []uint32
	inSlab bool

	globalHist uint64
	localHist  []uint64
	localMask  uint64

	predictions uint64
	misses      []uint64 // per length

	// RecordAll staging (reused across batches): per-outcome history, pc
	// hash term and taken bit (pre-widened to the counter increment so the
	// order passes never re-derive it), and the per-outcome index of the
	// longest history length whose prediction is still unresolved.
	histBuf  []uint64
	pcBuf    []uint64
	takenBuf []uint16
	pending  []int8
}

// denseMaxHist is the longest history a global-table group keeps in the
// dense layout: its 2^13-1 (order, context) pairs need at most 8,191
// counters, 32 KiB.
const denseMaxHist = 12

// denseRemap maps an (order, context) pair, as 1<<order | context, to a
// counter slot for one table size. Slots are numbered order by order, so
// the slots of orders 0..h are exactly 0..ends[h]-1 and one remap serves
// every longest history up to denseMaxHist.
type denseRemap struct {
	once sync.Once
	slot []uint16
	ends [denseMaxHist + 1]int
}

// denseRemaps holds one lazily built remap per table size.
var denseRemaps [maxTableBits + 1]denseRemap

// remapFor returns the shared remap for tableBits, building it on first
// use.
func remapFor(tableBits uint) *denseRemap {
	r := &denseRemaps[tableBits]
	r.once.Do(func() {
		mask := uint64(1)<<tableBits - 1
		r.slot = make([]uint16, 2<<denseMaxHist)
		first := make(map[uint64]uint16)
		n := 0
		for o := 0; o <= denseMaxHist; o++ {
			clear(first)
			for ctx := uint64(0); ctx < 1<<o; ctx++ {
				idx := mix64(ctx<<6^uint64(o)) & mask
				s, ok := first[idx]
				if !ok {
					s = uint16(n)
					first[idx] = s
					n++
				}
				r.slot[1<<o|ctx] = s
			}
			r.ends[o] = n
		}
	})
	return r
}

// NewGroup builds a grouped predictor for the given history lengths
// (typically {4, 8, 12}).
func NewGroup(histScope, tableScope Scope, lengths []int, tableBits int) (*Group, error) {
	if len(lengths) == 0 {
		return nil, fmt.Errorf("ppm: group with no history lengths")
	}
	ls := append([]int(nil), lengths...)
	sort.Ints(ls)
	if ls[0] < 0 || ls[len(ls)-1] > 32 {
		return nil, fmt.Errorf("ppm: history lengths %v out of [0,32]", ls)
	}
	if tableBits == 0 {
		tableBits = 14
	}
	if tableBits < minTableBits || tableBits > maxTableBits {
		return nil, fmt.Errorf("ppm: table bits %d out of [%d,%d]", tableBits, minTableBits, maxTableBits)
	}
	g := &Group{
		histScope:  histScope,
		tableScope: tableScope,
		lengths:    ls,
		maxHist:    ls[len(ls)-1],
		mask:       1<<uint(tableBits) - 1,
		tableBits:  uint(tableBits),
		misses:     make([]uint64, len(ls)),
	}
	if tableScope == Global && g.maxHist <= denseMaxHist {
		r := remapFor(g.tableBits)
		g.remap = r.slot
		g.counters = make([]uint32, r.ends[g.maxHist])
	} else {
		g.slots = make([]uint64, 1<<12)
		g.maxSlots = 1 << 16
	}
	if histScope == PerAddress {
		const localBits = 10
		g.localHist = make([]uint64, 1<<localBits)
		g.localMask = 1<<localBits - 1
	}
	return g, nil
}

// Lengths returns the configured history lengths, ascending.
func (g *Group) Lengths() []int { return append([]int(nil), g.lengths...) }

// Name returns the variant name, e.g. "PAs".
func (g *Group) Name() string {
	return Config{HistoryScope: g.histScope, TableScope: g.tableScope}.Name()
}

// Reset clears all predictor state and counters. The entry map keeps its
// grown capacity; the slab (if any) was cleared when it was entered, so
// dropping back to map mode is all a spilled interval needs.
func (g *Group) Reset() {
	clear(g.counters)
	clear(g.slots)
	g.nslots = 0
	g.inSlab = false
	clear(g.localHist)
	g.globalHist = 0
	g.predictions = 0
	clear(g.misses)
}

// slotHash spreads a table index over the slot array. Multiply-shift:
// idx's low bits are already a mix64 output, the multiply folds the order
// bits in.
func slotHash(idx uint64) uint64 { return idx * 0x9e3779b97f4a7c15 }

// entryKey returns the storage key of the order-o entry for a branch
// with history hist and pc hash term pcTerm: the counter slot in the
// dense layout, the direct-mapped table index otherwise.
func (g *Group) entryKey(o int, hist, pcTerm uint64) uint64 {
	ctx := hist & (1<<uint(o) - 1)
	if g.remap != nil {
		return uint64(g.remap[1<<uint(o)|ctx])
	}
	return uint64(o)<<g.tableBits + (mix64(ctx<<6^uint64(o)^pcTerm) & g.mask)
}

// loadEntry returns the packed counters of the entry with key idx (see
// entryKey), zero if unseen this interval.
func (g *Group) loadEntry(idx uint64) uint32 {
	if g.remap != nil {
		return g.counters[idx]
	}
	if g.inSlab {
		return g.slab[idx]
	}
	slots := g.slots
	if len(slots) == 0 {
		return 0
	}
	m := uint64(len(slots) - 1)
	for h := slotHash(idx); ; h++ {
		s := slots[h&m]
		if s == 0 {
			return 0
		}
		if s>>32 == idx {
			return uint32(s)
		}
	}
}

// storeEntry writes the updated counters of the entry with key idx.
// wasZero marks a first touch (a map insert).
func (g *Group) storeEntry(idx uint64, e uint32, wasZero bool) {
	if g.remap != nil {
		g.counters[idx] = e
		return
	}
	if g.inSlab {
		g.slab[idx] = e
		return
	}
	slots := g.slots
	if len(slots) == 0 {
		return
	}
	m := uint64(len(slots) - 1)
	for h := slotHash(idx); ; h++ {
		s := slots[h&m]
		if s == 0 || s>>32 == idx {
			slots[h&m] = idx<<32 | uint64(e)
			break
		}
	}
	if wasZero {
		g.nslots++
		if 2*g.nslots >= len(slots) {
			g.growOrSpill()
		}
	}
}

// growOrSpill doubles the slot array, or migrates to the direct-mapped
// slab once the map would outgrow maxSlots.
func (g *Group) growOrSpill() {
	if 2*len(g.slots) <= g.maxSlots {
		old := g.slots
		g.slots = make([]uint64, 2*len(old))
		m := uint64(len(g.slots) - 1)
		for _, s := range old {
			if s == 0 {
				continue
			}
			h := slotHash(s >> 32)
			for g.slots[h&m] != 0 {
				h++
			}
			g.slots[h&m] = s
		}
		return
	}
	// Spill: move every live entry to its direct-mapped slot. The slab
	// may hold a previous spilled interval's counters, so clear it first.
	if g.slab == nil {
		// Padded to a power of two so the hot loop can index it as
		// slab[idx&(len-1)]: a no-op mask (idx is already in range) that
		// lets the compiler drop the bounds checks.
		n := 1
		for n < (g.maxHist+1)<<g.tableBits {
			n <<= 1
		}
		g.slab = make([]uint32, n)
	} else {
		clear(g.slab)
	}
	for _, s := range g.slots {
		if s != 0 {
			g.slab[s>>32] = uint32(s)
		}
	}
	g.inSlab = true
}

// Record predicts the branch at pc at every configured history length,
// then updates the shared tables with the outcome.
func (g *Group) Record(pc uint64, taken bool) {
	hist := &g.globalHist
	var pcTerm uint64
	if g.histScope == PerAddress || g.tableScope == PerAddress {
		h := mix64(pc)
		if g.histScope == PerAddress {
			hist = &g.localHist[h&g.localMask]
		}
		if g.tableScope == PerAddress {
			pcTerm = h << 1
		}
	}
	g.record(*hist, pcTerm, taken)

	*hist = *hist << 1
	if taken {
		*hist |= 1
	}
	g.predictions++
}

// record runs the fused predict+update pass for one branch. A single
// descending sweep is equivalent to the predict-then-update split: each
// order's entries are disjoint (the order is part of the index), so when
// order o is visited only orders above it have been updated and its entry
// still holds the pre-update counts every prediction must read.
func (g *Group) record(hist, pcTerm uint64, taken bool) {
	lengths := g.lengths
	misses := g.misses
	pending := len(lengths) - 1
	for o := g.maxHist; o >= 0; o-- {
		idx := g.entryKey(o, hist, pcTerm)
		e := g.loadEntry(idx)
		taken16, total16 := uint16(e>>16), uint16(e)

		if total16 != 0 {
			pred := 2*uint32(taken16) >= uint32(total16)
			for pending >= 0 && lengths[pending] >= o {
				if pred != taken {
					misses[pending]++
				}
				pending--
			}
		}

		if total16 == entryMax {
			taken16 /= 2
			total16 /= 2
		}
		total16++
		if taken {
			taken16++
		}
		g.storeEntry(idx, uint32(taken16)<<16|uint32(total16), total16 == 1)
	}
	// Cutoffs that found no seen context at any order default to taken.
	for ; pending >= 0; pending-- {
		if !taken {
			misses[pending]++
		}
	}
}

// RecordAll replays a batch of branch outcomes in order, equivalent to
// calling Record on each outcome but restructured order-major: the
// per-outcome history and pc term are staged once, then the whole batch
// sweeps the orders one at a time. The reordering is invisible: within an
// order, outcomes are replayed in stream order (so every read sees
// exactly the updates scalar processing would have applied), and
// different orders index disjoint entries.
func (g *Group) RecordAll(outcomes []Outcome) {
	n := len(outcomes)
	if n == 0 {
		return
	}
	if cap(g.histBuf) < n {
		g.histBuf = make([]uint64, n)
		g.pcBuf = make([]uint64, n)
		g.takenBuf = make([]uint16, n)
		g.pending = make([]int8, n)
	}
	hists := g.histBuf[:n]
	pcs := g.pcBuf[:n]
	takens := g.takenBuf[:n]
	pending := g.pending[:n]

	// Stage each outcome's pre-update history and pc hash term, advancing
	// the history state exactly as scalar Record would.
	switch {
	case g.histScope == PerAddress:
		perAddrTables := g.tableScope == PerAddress
		for i := range outcomes {
			o := &outcomes[i]
			h := mix64(o.PC)
			slot := &g.localHist[h&g.localMask]
			hists[i] = *slot
			if perAddrTables {
				pcs[i] = h << 1
			} else {
				pcs[i] = 0
			}
			t := uint16(0)
			if o.Taken {
				t = 1
			}
			takens[i] = t
			*slot = *slot<<1 | uint64(t)
		}
	case g.tableScope == PerAddress:
		hist := g.globalHist
		for i := range outcomes {
			o := &outcomes[i]
			hists[i] = hist
			pcs[i] = mix64(o.PC) << 1
			t := uint16(0)
			if o.Taken {
				t = 1
			}
			takens[i] = t
			hist = hist<<1 | uint64(t)
		}
		g.globalHist = hist
	default: // GAg
		hist := g.globalHist
		for i := range outcomes {
			hists[i] = hist
			pcs[i] = 0
			t := uint16(0)
			if outcomes[i].Taken {
				t = 1
			}
			takens[i] = t
			hist = hist<<1 | uint64(t)
		}
		g.globalHist = hist
	}

	top := int8(len(g.lengths) - 1)
	for i := range pending {
		pending[i] = top
	}
	for o := g.maxHist; o >= 0; o-- {
		g.recordOrder(o, takens, hists, pcs, pending)
	}
	// Outcomes whose short cutoffs found no seen context at any order
	// default to predicted-taken.
	for i := range takens {
		if takens[i] == 0 {
			for p := pending[i]; p >= 0; p-- {
				g.misses[p]++
			}
		}
	}
	g.predictions += uint64(n)
}

// recordOrder runs one order's predict+update pass over a staged batch.
func (g *Group) recordOrder(o int, takens []uint16, hists, pcs []uint64, pending []int8) {
	if g.remap != nil {
		g.recordOrderDense(o, takens, hists, pending)
		return
	}
	i := 0
	if !g.inSlab {
		i = g.recordOrderMap(o, takens, hists, pcs, pending)
	}
	if i < len(takens) {
		g.recordOrderSlab(o, takens[i:], hists[i:], pcs[i:], pending[i:])
	}
}

// recordOrderDense is the dense-layout pass. Its predict+update step
// repeats the map and slab passes' inline: as a shared function the
// compiler will not inline, the step costs about a quarter more.
func (g *Group) recordOrderDense(o int, takens []uint16, hists []uint64, pending []int8) {
	remap := g.remap[1<<uint(o) : 2<<uint(o)] // order o's contexts
	ctxMask := uint64(len(remap) - 1)
	counters := g.counters
	lengths := g.lengths
	misses := g.misses
	for i := range takens {
		takenInc := takens[i]
		taken := takenInc != 0
		slot := remap[hists[i]&ctxMask]
		e := counters[slot]
		taken16, total16 := uint16(e>>16), uint16(e)

		if total16 != 0 {
			p := pending[i]
			if p >= 0 && lengths[p] >= o {
				pred := 2*uint32(taken16) >= uint32(total16)
				for {
					var mi uint64
					if pred != taken {
						mi = 1
					}
					misses[p] += mi
					p--
					if p < 0 || lengths[p] < o {
						break
					}
				}
				pending[i] = p
			}
		}

		if total16 == entryMax {
			taken16 /= 2
			total16 /= 2
		}
		total16++
		taken16 += takenInc
		counters[slot] = uint32(taken16)<<16 | uint32(total16)
	}
}

// recordOrderMap is the map-mode pass. It returns the index of the first
// unprocessed outcome — len(takens) normally, earlier if the map
// spilled to the slab mid-pass.
func (g *Group) recordOrderMap(o int, takens []uint16, hists, pcs []uint64, pending []int8) int {
	lengths := g.lengths
	misses := g.misses
	base := uint64(o) << g.tableBits
	ctxMask := uint64(1)<<uint(o) - 1
	oTerm := uint64(o)
	tblMask := g.mask
	// The table pointer and probe mask only change on growth, so they live
	// in locals and are reloaded after growOrSpill rather than per outcome.
	slots := g.slots
	if len(slots) == 0 {
		return 0
	}
	m := uint64(len(slots) - 1)
	for i := range takens {
		takenInc := takens[i]
		taken := takenInc != 0
		idx := base + (mix64((hists[i]&ctxMask)<<6^oTerm^pcs[i]) & tblMask)

		// Fused lookup+update probe: remember the slot so the store does
		// not probe again.
		h := slotHash(idx)
		var e uint32
		for {
			s := slots[h&m]
			if s == 0 {
				e = 0
				break
			}
			if s>>32 == idx {
				e = uint32(s)
				break
			}
			h++
		}
		taken16, total16 := uint16(e>>16), uint16(e)

		if total16 != 0 {
			p := pending[i]
			if p >= 0 && lengths[p] >= o {
				pred := 2*uint32(taken16) >= uint32(total16)
				for {
					var mi uint64
					if pred != taken {
						mi = 1
					}
					misses[p] += mi
					p--
					if p < 0 || lengths[p] < o {
						break
					}
				}
				pending[i] = p
			}
		}

		if total16 == entryMax {
			taken16 /= 2
			total16 /= 2
		}
		total16++
		taken16 += takenInc
		slots[h&m] = idx<<32 | uint64(uint32(taken16)<<16|uint32(total16))
		if e == 0 {
			g.nslots++
			if 2*g.nslots >= len(slots) {
				g.growOrSpill()
				if g.inSlab {
					return i + 1
				}
				slots = g.slots
				if len(slots) == 0 {
					return i + 1
				}
				m = uint64(len(slots) - 1)
			}
		}
	}
	return len(takens)
}

// recordOrderSlab is the spilled pass over the direct-mapped slab.
func (g *Group) recordOrderSlab(o int, takens []uint16, hists, pcs []uint64, pending []int8) {
	slab := g.slab
	if len(slab) == 0 {
		return
	}
	lenMask := uint64(len(slab) - 1) // no-op mask proving accesses in bounds
	lengths := g.lengths
	misses := g.misses
	base := uint64(o) << g.tableBits
	ctxMask := uint64(1)<<uint(o) - 1
	oTerm := uint64(o)
	for i := range takens {
		takenInc := takens[i]
		taken := takenInc != 0
		idx := base + (mix64((hists[i]&ctxMask)<<6^oTerm^pcs[i]) & g.mask)
		e := slab[idx&lenMask]
		taken16, total16 := uint16(e>>16), uint16(e)

		if total16 != 0 {
			p := pending[i]
			if p >= 0 && lengths[p] >= o {
				pred := 2*uint32(taken16) >= uint32(total16)
				for {
					var mi uint64
					if pred != taken {
						mi = 1
					}
					misses[p] += mi
					p--
					if p < 0 || lengths[p] < o {
						break
					}
				}
				pending[i] = p
			}
		}

		if total16 == entryMax {
			taken16 /= 2
			total16 /= 2
		}
		total16++
		taken16 += takenInc
		slab[idx&lenMask] = uint32(taken16)<<16 | uint32(total16)
	}
}

// MissRates returns the misprediction rate per configured history length,
// ascending by length.
func (g *Group) MissRates() []float64 {
	out := make([]float64, len(g.lengths))
	if g.predictions == 0 {
		return out
	}
	for i, m := range g.misses {
		out[i] = float64(m) / float64(g.predictions)
	}
	return out
}

// Predictions returns the number of branches recorded.
func (g *Group) Predictions() uint64 { return g.predictions }

// StandardGroups returns the four variant groups covering the twelve
// standard configurations, in the same variant order as StandardConfigs
// (GAg, GAs, PAg, PAs; each at histories 4, 8, 12). The groups are
// returned by value, contiguous, so a caller iterating predictors touches
// one slab of headers instead of four scattered allocations.
func StandardGroups() []Group {
	scopes := []struct{ h, t Scope }{
		{Global, Global},
		{Global, PerAddress},
		{PerAddress, Global},
		{PerAddress, PerAddress},
	}
	out := make([]Group, 0, len(scopes))
	for _, s := range scopes {
		g, err := NewGroup(s.h, s.t, []int{4, 8, 12}, 0)
		if err != nil {
			panic("ppm: standard group invalid: " + err.Error())
		}
		out = append(out, *g)
	}
	return out
}
