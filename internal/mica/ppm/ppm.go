// Package ppm implements the theoretical PPM (prediction by partial
// matching) conditional-branch predictor of Chen, Coffey & Mudge (ASPLOS
// 1996), as used by the MICA branch-predictability characteristics: the
// predictor keeps frequency tables for every context order up to a maximum
// history length and predicts with the longest context it has seen,
// escaping to shorter contexts otherwise.
//
// Four variants are supported, crossing the history scope with the table
// scope:
//
//	GAg — global history, global pattern tables
//	GAs — global history, per-address (per-branch) pattern tables
//	PAg — per-address history, global pattern tables
//	PAs — per-address history, per-address pattern tables
package ppm

import "fmt"

// Scope selects global or per-address for a predictor dimension.
type Scope uint8

const (
	// Global shares one history register or pattern table across all
	// branches.
	Global Scope = iota
	// PerAddress keys the history register or pattern table by branch
	// address.
	PerAddress
)

func (s Scope) String() string {
	if s == Global {
		return "G"
	}
	return "P"
}

// Config describes one PPM predictor variant.
type Config struct {
	// HistoryScope selects a global history register (G) or per-branch
	// history registers (P).
	HistoryScope Scope
	// TableScope selects globally shared pattern tables (g) or
	// per-address tables (s, i.e. the branch address participates in the
	// table index).
	TableScope Scope
	// MaxHistory is the maximum context length in branch outcomes
	// (bits); the paper uses 4, 8 and 12.
	MaxHistory int
	// TableBits sizes each order's hashed table at 1<<TableBits entries;
	// 0 selects a default of 14.
	TableBits int
}

// Name returns the conventional two-level-predictor name, e.g. "GAs".
func (c Config) Name() string {
	table := "g"
	if c.TableScope == PerAddress {
		table = "s"
	}
	return fmt.Sprintf("%sA%s", c.HistoryScope, table)
}

// entry is one frequency-table cell: outcomes observed and how many were
// taken, saturating.
type entry struct {
	taken uint16
	total uint16
}

const entryMax = 1<<16 - 1

// Accepted table sizes, in index bits.
const (
	minTableBits = 4
	maxTableBits = 24
)

// Predictor is a PPM predictor instance. The zero value is not usable; use
// New.
type Predictor struct {
	cfg    Config
	mask   uint64
	tables [][]entry // one hashed table per order 0..MaxHistory

	globalHist uint64
	localHist  []uint64 // per-address history registers (hashed by PC)
	localMask  uint64

	predictions uint64
	misses      uint64
}

// New builds a predictor for the given configuration.
func New(cfg Config) (*Predictor, error) {
	if cfg.MaxHistory < 0 || cfg.MaxHistory > 32 {
		return nil, fmt.Errorf("ppm: max history %d out of [0,32]", cfg.MaxHistory)
	}
	if cfg.TableBits == 0 {
		cfg.TableBits = 14
	}
	if cfg.TableBits < minTableBits || cfg.TableBits > maxTableBits {
		return nil, fmt.Errorf("ppm: table bits %d out of [%d,%d]", cfg.TableBits, minTableBits, maxTableBits)
	}
	p := &Predictor{
		cfg:  cfg,
		mask: 1<<uint(cfg.TableBits) - 1,
	}
	p.tables = make([][]entry, cfg.MaxHistory+1)
	for o := range p.tables {
		p.tables[o] = make([]entry, 1<<uint(cfg.TableBits))
	}
	if cfg.HistoryScope == PerAddress {
		const localBits = 10
		p.localHist = make([]uint64, 1<<localBits)
		p.localMask = 1<<localBits - 1
	}
	return p, nil
}

// Config returns the predictor's configuration.
func (p *Predictor) Config() Config { return p.cfg }

// Reset clears all state, including the accuracy counters.
func (p *Predictor) Reset() {
	for o := range p.tables {
		clear(p.tables[o])
	}
	clear(p.localHist)
	p.globalHist = 0
	p.predictions = 0
	p.misses = 0
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ (x >> 33)
}

// index hashes an order-o context (and the PC, for per-address tables)
// into the order's table.
func (p *Predictor) index(order int, hist, pc uint64) uint64 {
	ctx := hist & (1<<uint(order) - 1)
	key := ctx<<6 ^ uint64(order)
	if p.cfg.TableScope == PerAddress {
		key ^= mix64(pc) << 1
	}
	return mix64(key) & p.mask
}

// history returns the active history register for a branch.
func (p *Predictor) history(pc uint64) *uint64 {
	if p.cfg.HistoryScope == Global {
		return &p.globalHist
	}
	return &p.localHist[mix64(pc)&p.localMask]
}

// Record predicts the branch at pc, then updates the predictor with the
// actual outcome. It returns the prediction that was made.
func (p *Predictor) Record(pc uint64, taken bool) (predicted bool) {
	hist := p.history(pc)

	// Predict with the longest matching (seen) context; default taken.
	predicted = true
	for o := p.cfg.MaxHistory; o >= 0; o-- {
		e := &p.tables[o][p.index(o, *hist, pc)]
		if e.total > 0 {
			predicted = 2*uint32(e.taken) >= uint32(e.total)
			break
		}
	}

	// Update every order's frequency table.
	for o := 0; o <= p.cfg.MaxHistory; o++ {
		e := &p.tables[o][p.index(o, *hist, pc)]
		if e.total == entryMax {
			e.taken /= 2
			e.total /= 2
		}
		e.total++
		if taken {
			e.taken++
		}
	}

	// Shift the outcome into the history register.
	*hist = *hist << 1
	if taken {
		*hist |= 1
	}

	p.predictions++
	if predicted != taken {
		p.misses++
	}
	return predicted
}

// Predictions returns how many branches have been recorded.
func (p *Predictor) Predictions() uint64 { return p.predictions }

// Misses returns how many recorded branches were mispredicted.
func (p *Predictor) Misses() uint64 { return p.misses }

// MissRate returns the misprediction rate, or 0 before any branch.
func (p *Predictor) MissRate() float64 {
	if p.predictions == 0 {
		return 0
	}
	return float64(p.misses) / float64(p.predictions)
}

// StandardConfigs returns the twelve predictor variants measured by the
// MICA branch-predictability characteristics: {GAg, GAs, PAg, PAs} crossed
// with maximum history lengths {4, 8, 12}.
func StandardConfigs() []Config {
	scopes := []struct{ h, t Scope }{
		{Global, Global},
		{Global, PerAddress},
		{PerAddress, Global},
		{PerAddress, PerAddress},
	}
	lengths := []int{4, 8, 12}
	cfgs := make([]Config, 0, len(scopes)*len(lengths))
	for _, s := range scopes {
		for _, h := range lengths {
			cfgs = append(cfgs, Config{HistoryScope: s.h, TableScope: s.t, MaxHistory: h})
		}
	}
	return cfgs
}
