package ppm

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, cfg Config) *Predictor {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigNames(t *testing.T) {
	tests := []struct {
		cfg  Config
		want string
	}{
		{Config{Global, Global, 8, 0}, "GAg"},
		{Config{Global, PerAddress, 8, 0}, "GAs"},
		{Config{PerAddress, Global, 8, 0}, "PAg"},
		{Config{PerAddress, PerAddress, 8, 0}, "PAs"},
	}
	for _, tt := range tests {
		if got := tt.cfg.Name(); got != tt.want {
			t.Errorf("Name() = %q, want %q", got, tt.want)
		}
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	if _, err := New(Config{MaxHistory: -1}); err == nil {
		t.Fatal("negative history accepted")
	}
	if _, err := New(Config{MaxHistory: 40}); err == nil {
		t.Fatal("oversized history accepted")
	}
	if _, err := New(Config{MaxHistory: 8, TableBits: 2}); err == nil {
		t.Fatal("tiny table accepted")
	}
	if _, err := New(Config{MaxHistory: 8, TableBits: 30}); err == nil {
		t.Fatal("huge table accepted")
	}
}

func TestAlwaysTakenLearned(t *testing.T) {
	p := mustNew(t, Config{Global, Global, 8, 0})
	for i := 0; i < 1000; i++ {
		p.Record(0x400, true)
	}
	if rate := p.MissRate(); rate > 0.01 {
		t.Fatalf("always-taken miss rate = %v", rate)
	}
}

func TestAlternatingPatternLearned(t *testing.T) {
	for _, cfg := range StandardConfigs() {
		p := mustNew(t, cfg)
		for i := 0; i < 2000; i++ {
			p.Record(0x400, i%2 == 0)
		}
		if rate := p.MissRate(); rate > 0.05 {
			t.Fatalf("%s_%d: alternating pattern miss rate %v", cfg.Name(), cfg.MaxHistory, rate)
		}
	}
}

func TestPeriodicPatternNeedsHistory(t *testing.T) {
	// A period-6 pattern (5 taken, 1 not) is learnable with history >= 5
	// but not with history 4 contexts alone (the all-taken context is
	// ambiguous), so longer histories must do strictly better.
	run := func(hist int) float64 {
		p := mustNew(t, Config{Global, Global, hist, 0})
		for i := 0; i < 6000; i++ {
			p.Record(0x400, i%6 != 5)
		}
		return p.MissRate()
	}
	short := run(4)
	long := run(12)
	if long >= short {
		t.Fatalf("12-bit history (%v) not better than 4-bit (%v) on period-6 pattern", long, short)
	}
	if long > 0.02 {
		t.Fatalf("period-6 pattern not learned by 12-bit PPM: %v", long)
	}
}

func TestRandomOutcomesNearHalf(t *testing.T) {
	p := mustNew(t, Config{Global, PerAddress, 8, 0})
	x := uint64(12345)
	for i := 0; i < 50000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		p.Record(0x400, x>>63 == 1)
	}
	if rate := p.MissRate(); math.Abs(rate-0.5) > 0.05 {
		t.Fatalf("random-outcome miss rate = %v, want ~0.5", rate)
	}
}

func TestPerAddressHistorySeparatesBranches(t *testing.T) {
	// Two interleaved branches with opposite constant outcomes: trivial
	// for per-address history, also learnable globally, but per-address
	// tables must not confuse them.
	p := mustNew(t, Config{PerAddress, PerAddress, 8, 0})
	for i := 0; i < 4000; i++ {
		p.Record(0x100, true)
		p.Record(0x200, false)
	}
	if rate := p.MissRate(); rate > 0.01 {
		t.Fatalf("two-constant-branch miss rate = %v", rate)
	}
}

func TestReset(t *testing.T) {
	p := mustNew(t, Config{Global, Global, 4, 0})
	for i := 0; i < 100; i++ {
		p.Record(0x400, true)
	}
	p.Reset()
	if p.Predictions() != 0 || p.Misses() != 0 {
		t.Fatal("Reset did not clear counters")
	}
	if p.MissRate() != 0 {
		t.Fatal("MissRate after Reset should be 0")
	}
}

func TestStandardConfigs(t *testing.T) {
	cfgs := StandardConfigs()
	if len(cfgs) != 12 {
		t.Fatalf("got %d standard configs, want 12", len(cfgs))
	}
	seen := map[string]bool{}
	for _, c := range cfgs {
		key := c.Name() + string(rune(c.MaxHistory))
		if seen[key] {
			t.Fatalf("duplicate config %s/%d", c.Name(), c.MaxHistory)
		}
		seen[key] = true
		if c.MaxHistory != 4 && c.MaxHistory != 8 && c.MaxHistory != 12 {
			t.Fatalf("unexpected history length %d", c.MaxHistory)
		}
	}
}

// TestGroupMatchesIndividualPredictors is the equivalence property backing
// the analyzer's use of Group: for any outcome stream, the grouped
// predictor must report exactly the miss rates of the twelve independent
// PPM predictors.
func TestGroupMatchesIndividualPredictors(t *testing.T) {
	f := func(seed uint64, raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		groups := StandardGroups()
		var preds []*Predictor
		for _, cfg := range StandardConfigs() {
			p, err := New(cfg)
			if err != nil {
				return false
			}
			preds = append(preds, p)
		}
		x := seed
		for _, b := range raw {
			// A handful of branch PCs with data-dependent outcomes.
			pc := uint64(0x400000 + int(b%7)*4)
			x = x*6364136223846793005 + 1442695040888963407
			taken := (x>>62)&1 == 1 || b%3 == 0
			for gi := range groups {
				groups[gi].Record(pc, taken)
			}
			for _, p := range preds {
				p.Record(pc, taken)
			}
		}
		i := 0
		for gi := range groups {
			for _, rate := range groups[gi].MissRates() {
				if math.Abs(rate-preds[i].MissRate()) > 1e-12 {
					return false
				}
				i++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// outcomeStream produces a deterministic mixed-PC branch stream.
func outcomeStream(seed uint64, n int) []Outcome {
	out := make([]Outcome, n)
	x := seed
	for i := range out {
		x = x*6364136223846793005 + 1442695040888963407
		out[i] = Outcome{
			PC:    uint64(0x400000 + int(x>>59&7)*4),
			Taken: (x>>62)&1 == 1 || x%5 == 0,
		}
	}
	return out
}

// TestGroupRecordAllMatchesRecord pins RecordAll to the scalar path for
// every variant: same outcomes, same miss rates, same prediction count.
func TestGroupRecordAllMatchesRecord(t *testing.T) {
	stream := outcomeStream(99, 5000)
	scalar := StandardGroups()
	batched := StandardGroups()
	for i := range scalar {
		for _, o := range stream {
			scalar[i].Record(o.PC, o.Taken)
		}
		// Feed in uneven chunks to cross batch boundaries mid-history.
		for lo := 0; lo < len(stream); {
			hi := lo + 1 + (lo % 613)
			if hi > len(stream) {
				hi = len(stream)
			}
			batched[i].RecordAll(stream[lo:hi])
			lo = hi
		}
		if scalar[i].Predictions() != batched[i].Predictions() {
			t.Fatalf("%s: predictions %d vs %d", scalar[i].Name(),
				scalar[i].Predictions(), batched[i].Predictions())
		}
		sr, br := scalar[i].MissRates(), batched[i].MissRates()
		for j := range sr {
			if sr[j] != br[j] {
				t.Fatalf("%s length %d: RecordAll miss rate %v, Record %v",
					scalar[i].Name(), scalar[i].Lengths()[j], br[j], sr[j])
			}
		}
	}
}

// TestGroupResetIsolation verifies the epoch-based Reset: a group reused
// across many Reset cycles must produce exactly the results of a fresh
// group on every interval, i.e. no state can leak through the epoch
// stamps.
func TestGroupResetIsolation(t *testing.T) {
	reused := StandardGroups()
	for round := 0; round < 5; round++ {
		stream := outcomeStream(uint64(round)*77+1, 3000)
		fresh := StandardGroups()
		for i := range reused {
			reused[i].Reset()
			reused[i].RecordAll(stream)
			fresh[i].RecordAll(stream)
			rr, fr := reused[i].MissRates(), fresh[i].MissRates()
			for j := range rr {
				if rr[j] != fr[j] {
					t.Fatalf("round %d %s length %d: reused %v, fresh %v",
						round, reused[i].Name(), reused[i].Lengths()[j], rr[j], fr[j])
				}
			}
		}
	}
}

func TestGroupReset(t *testing.T) {
	g, err := NewGroup(Global, Global, []int{4, 8, 12}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		g.Record(0x4, i%2 == 0)
	}
	g.Reset()
	if g.Predictions() != 0 {
		t.Fatal("Reset did not clear predictions")
	}
	for _, r := range g.MissRates() {
		if r != 0 {
			t.Fatal("Reset did not clear miss counters")
		}
	}
}

func TestGroupRejectsBadConfig(t *testing.T) {
	if _, err := NewGroup(Global, Global, nil, 0); err == nil {
		t.Fatal("empty lengths accepted")
	}
	if _, err := NewGroup(Global, Global, []int{40}, 0); err == nil {
		t.Fatal("oversized history accepted")
	}
	if _, err := NewGroup(Global, Global, []int{4}, 2); err == nil {
		t.Fatal("tiny tables accepted")
	}
}

func TestGroupLengthsSortedCopy(t *testing.T) {
	g, err := NewGroup(Global, Global, []int{12, 4, 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ls := g.Lengths()
	if ls[0] != 4 || ls[1] != 8 || ls[2] != 12 {
		t.Fatalf("Lengths() = %v, want ascending", ls)
	}
	ls[0] = 99
	if g.Lengths()[0] != 4 {
		t.Fatal("Lengths() exposed internal slice")
	}
}

func TestScopeString(t *testing.T) {
	if Global.String() != "G" || PerAddress.String() != "P" {
		t.Fatal("scope strings wrong")
	}
}

func TestGroupName(t *testing.T) {
	g, err := NewGroup(PerAddress, Global, []int{4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "PAg" {
		t.Fatalf("group name = %q", g.Name())
	}
}

// TestGroupSpillMatchesReference forces the entry map to spill into the
// direct-mapped slab mid-interval and checks the results stay identical
// to the reference predictors, including across a Reset and a second
// spilled interval.
func TestGroupSpillMatchesReference(t *testing.T) {
	// A wide PC range accumulates distinct entries quickly.
	n := 6000
	outs := make([]Outcome, n)
	x := uint64(7)
	for i := range outs {
		x = x*6364136223846793005 + 1442695040888963407
		outs[i] = Outcome{
			PC:    0x400000 + (x>>40)%4096*4,
			Taken: (x>>62)&1 == 1 || x%3 == 0,
		}
	}
	newPreds := func() []*Predictor {
		var preds []*Predictor
		for _, cfg := range StandardConfigs() {
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			preds = append(preds, p)
		}
		return preds
	}
	groups := StandardGroups()
	for gi := range groups {
		if groups[gi].remap == nil { // the dense layout never spills
			groups[gi].slots = make([]uint64, 1<<8)
			groups[gi].maxSlots = 1 << 9
		}
	}
	for round := 0; round < 2; round++ {
		preds := newPreds()
		for gi := range groups {
			if round > 0 {
				groups[gi].Reset()
			}
			groups[gi].RecordAll(outs)
		}
		for _, o := range outs {
			for _, p := range preds {
				p.Record(o.PC, o.Taken)
			}
		}
		spilled := 0
		i := 0
		for gi := range groups {
			if groups[gi].inSlab {
				spilled++
			}
			for _, rate := range groups[gi].MissRates() {
				if rate != preds[i].MissRate() {
					t.Fatalf("round %d %s: miss rate %v, reference %v",
						round, groups[gi].Name(), rate, preds[i].MissRate())
				}
				i++
			}
		}
		if spilled == 0 {
			t.Fatalf("round %d: no group spilled; test is vacuous", round)
		}
	}
}

// TestGroupLayoutFollowsParameters pins which groups take the dense
// layout: global tables with histories up to denseMaxHist, and nothing
// else.
func TestGroupLayoutFollowsParameters(t *testing.T) {
	groups := StandardGroups()
	for i := range groups {
		g := &groups[i]
		if dense := g.remap != nil; dense != (g.tableScope == Global) {
			t.Errorf("%s: dense layout = %v", g.Name(), dense)
		}
		if g.remap != nil && len(g.counters) > 1<<(denseMaxHist+1)-1 {
			t.Errorf("%s: %d dense counters, more than the %d contexts", g.Name(), len(g.counters), 1<<(denseMaxHist+1)-1)
		}
	}
	long, err := NewGroup(Global, Global, []int{4, denseMaxHist + 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if long.remap != nil {
		t.Errorf("history %d took the dense layout", denseMaxHist+1)
	}
}

// TestDenseGroupAliasingMatchesPredictor runs global-table groups at
// table sizes small enough that many contexts of one order collide, and
// checks the dense counters alias exactly as the reference predictors'
// direct-mapped tables do, on the scalar and the batch path.
func TestDenseGroupAliasingMatchesPredictor(t *testing.T) {
	stream := outcomeStream(5, 6000)
	for _, tableBits := range []int{4, 6, 9, 14} {
		for _, hist := range []Scope{Global, PerAddress} {
			lengths := []int{0, 3, 7, denseMaxHist}
			scalar, err := NewGroup(hist, Global, lengths, tableBits)
			if err != nil {
				t.Fatal(err)
			}
			batched, err := NewGroup(hist, Global, lengths, tableBits)
			if err != nil {
				t.Fatal(err)
			}
			if scalar.remap == nil {
				t.Fatalf("table bits %d: global-table group not dense", tableBits)
			}
			var preds []*Predictor
			for _, h := range lengths {
				preds = append(preds, mustNew(t, Config{HistoryScope: hist, TableScope: Global, MaxHistory: h, TableBits: tableBits}))
			}
			for _, o := range stream {
				scalar.Record(o.PC, o.Taken)
				for _, p := range preds {
					p.Record(o.PC, o.Taken)
				}
			}
			for lo := 0; lo < len(stream); lo += 257 {
				batched.RecordAll(stream[lo:min(lo+257, len(stream))])
			}
			sr, br := scalar.MissRates(), batched.MissRates()
			for i, p := range preds {
				if sr[i] != p.MissRate() || br[i] != p.MissRate() {
					t.Fatalf("%s table bits %d history %d: Record %v, RecordAll %v, predictor %v",
						scalar.Name(), tableBits, lengths[i], sr[i], br[i], p.MissRate())
				}
			}
		}
	}
}

// TestDenseRemapConcurrentFirstUse builds groups for a table size no other
// test uses from several goroutines at once: the shared remap is built
// exactly once and every group sees it whole (run under -race).
func TestDenseRemapConcurrentFirstUse(t *testing.T) {
	const tableBits = 11
	stream := outcomeStream(8, 2000)
	var want []float64
	for _, h := range []int{4, 8, 12} {
		p := mustNew(t, Config{HistoryScope: Global, TableScope: Global, MaxHistory: h, TableBits: tableBits})
		for _, o := range stream {
			p.Record(o.PC, o.Taken)
		}
		want = append(want, p.MissRate())
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := NewGroup(PerAddress, Global, []int{4, 8, 12}, tableBits)
			if err != nil {
				t.Error(err)
				return
			}
			g.RecordAll(stream)
			g.Reset()
			g2, err := NewGroup(Global, Global, []int{4, 8, 12}, tableBits)
			if err != nil {
				t.Error(err)
				return
			}
			g2.RecordAll(stream)
			for i, r := range g2.MissRates() {
				if r != want[i] {
					t.Errorf("length %d: miss rate %v, want %v", g2.Lengths()[i], r, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
