package bench

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestStandardRegistryBuilds(t *testing.T) {
	reg, err := StandardRegistry()
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 77 {
		t.Fatalf("registry has %d benchmarks, want 77 (the paper's count)", reg.Len())
	}
}

func TestSuiteSizes(t *testing.T) {
	reg := MustStandardRegistry()
	want := map[Suite]int{
		SuiteBioPerf:     10,
		SuiteBMW:         5,
		SuiteMediaBench:  7,
		SuiteSPECint2000: 12,
		SuiteSPECfp2000:  14,
		SuiteSPECint2006: 12,
		SuiteSPECfp2006:  17,
	}
	for s, n := range want {
		if got := len(reg.BySuite(s)); got != n {
			t.Errorf("suite %s has %d benchmarks, want %d", s, got, n)
		}
	}
}

func TestAllBenchmarksValid(t *testing.T) {
	for _, b := range MustStandardRegistry().All() {
		if err := b.Validate(); err != nil {
			t.Errorf("%s: %v", b.ID(), err)
		}
	}
}

func TestPhaseNamesUnique(t *testing.T) {
	seen := map[string]string{}
	for _, b := range MustStandardRegistry().All() {
		for _, p := range b.Phases {
			// Shared phases (deliberate cross-suite twins) reuse a
			// PhaseBehavior but carry their own name; duplicate names
			// within ONE benchmark would break diagnostics.
			key := b.ID() + "|" + p.Behavior.Name
			if prev, ok := seen[key]; ok {
				t.Errorf("duplicate phase %q in %s (also %s)", p.Behavior.Name, b.ID(), prev)
			}
			seen[key] = b.ID()
		}
	}
}

func TestIsDomainSpecific(t *testing.T) {
	reg := MustStandardRegistry()
	if !reg.IsDomainSpecific(SuiteBioPerf) || !reg.IsDomainSpecific(SuiteBMW) || !reg.IsDomainSpecific(SuiteMediaBench) {
		t.Fatal("domain-specific suites misclassified")
	}
	for _, s := range []Suite{SuiteSPECint2000, SuiteSPECfp2000, SuiteSPECint2006, SuiteSPECfp2006} {
		if reg.IsDomainSpecific(s) {
			t.Fatalf("%s misclassified as domain-specific", s)
		}
	}
}

func TestSuitesOrder(t *testing.T) {
	want := []Suite{SuiteBioPerf, SuiteBMW, SuiteSPECint2000, SuiteSPECfp2000,
		SuiteSPECint2006, SuiteSPECfp2006, SuiteMediaBench}
	got := MustStandardRegistry().SuiteNames()
	if len(got) != len(want) {
		t.Fatalf("standard registry has %d suites, want the seven canonical ones: %v", len(got), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("suite %d is %s, want %s (display order)", i, got[i], want[i])
		}
	}
}

func TestScaledIntervals(t *testing.T) {
	b := &Benchmark{Name: "x", Suite: SuiteBMW, PaperIntervals: 4}
	if got := b.ScaledIntervals(160); got != 48 {
		t.Fatalf("tiny benchmark scaled to %d, want floor 48", got)
	}
	big := &Benchmark{Name: "y", Suite: SuiteBMW, PaperIntervals: 74590}
	if got := big.ScaledIntervals(160); got != 156 {
		t.Fatalf("huge benchmark scaled to %d, want 156", got)
	}
	if got := big.ScaledIntervals(120); got != 120 {
		t.Fatalf("huge benchmark with cap 120 scaled to %d", got)
	}
	mid := &Benchmark{Name: "z", Suite: SuiteBMW, PaperIntervals: 74590}
	// Monotone in paper intervals.
	if b.ScaledIntervals(160) > mid.ScaledIntervals(160) {
		t.Fatal("scaling not monotone")
	}
	// Cap wins over the floor, with an absolute minimum of 4.
	if got := big.ScaledIntervals(1); got != 4 {
		t.Fatalf("cap below 4 not clamped: %d", got)
	}
}

func TestPhaseAtSequential(t *testing.T) {
	b := &Benchmark{
		Name: "seq", Suite: SuiteBMW, PaperIntervals: 100,
		Phases: []Phase{
			{Weight: 0.25, Behavior: trace.PhaseBehavior{Name: "a"}},
			{Weight: 0.75, Behavior: trace.PhaseBehavior{Name: "b"}},
		},
	}
	const total = 100
	for i := 0; i < total; i++ {
		want := 0
		if i >= 25 {
			want = 1
		}
		if got := b.PhaseAt(i, total); got != want {
			t.Fatalf("PhaseAt(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestPhaseAtPeriodic(t *testing.T) {
	b := &Benchmark{
		Name: "per", Suite: SuiteBMW, PaperIntervals: 100, Layout: LayoutPeriodic,
		Phases: []Phase{
			{Weight: 0.5, Behavior: trace.PhaseBehavior{Name: "a"}},
			{Weight: 0.5, Behavior: trace.PhaseBehavior{Name: "b"}},
		},
	}
	const total = 64
	// The phase pattern must repeat with the periodic period and include
	// both phases within one period.
	seenA, seenB := false, false
	for i := 0; i < 16; i++ {
		switch b.PhaseAt(i, total) {
		case 0:
			seenA = true
		case 1:
			seenB = true
		}
		if got, again := b.PhaseAt(i, total), b.PhaseAt(i+16, total); got != again {
			t.Fatalf("periodic layout not periodic at %d: %d vs %d", i, got, again)
		}
	}
	if !seenA || !seenB {
		t.Fatal("periodic layout did not alternate phases within a period")
	}
}

func TestPhaseAtEdgeCases(t *testing.T) {
	b := &Benchmark{
		Name: "edge", Suite: SuiteBMW, PaperIntervals: 10,
		Phases: []Phase{{Weight: 1, Behavior: trace.PhaseBehavior{Name: "only"}}},
	}
	if b.PhaseAt(-1, 10) != 0 || b.PhaseAt(99, 10) != 0 || b.PhaseAt(0, 0) != 0 {
		t.Fatal("edge-case interval indices mishandled")
	}
}

func TestIntervalSeedsDiffer(t *testing.T) {
	reg := MustStandardRegistry()
	a, _ := reg.Lookup("BioPerf/grappa")
	b, _ := reg.Lookup("BioPerf/hmmer")
	if a.IntervalSeed(0) == a.IntervalSeed(1) {
		t.Fatal("interval seeds within a benchmark collide")
	}
	if a.IntervalSeed(0) == b.IntervalSeed(0) {
		t.Fatal("interval seeds across benchmarks collide")
	}
	if a.IntervalSeed(3) != a.IntervalSeed(3) {
		t.Fatal("interval seeds not deterministic")
	}
}

func TestLookup(t *testing.T) {
	reg := MustStandardRegistry()
	if _, err := reg.Lookup("BioPerf/grappa"); err != nil {
		t.Fatalf("ID lookup failed: %v", err)
	}
	if _, err := reg.Lookup("grappa"); err != nil {
		t.Fatalf("bare-name lookup failed: %v", err)
	}
	// bzip2, gcc, mcf, hmmer exist in two suites: bare lookup must fail.
	for _, name := range []string{"bzip2", "gcc", "mcf", "hmmer"} {
		if _, err := reg.Lookup(name); err == nil || !strings.Contains(err.Error(), "ambiguous") {
			t.Fatalf("ambiguous name %q lookup: %v", name, err)
		}
	}
	if _, err := reg.Lookup("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	b := func() *Benchmark {
		return &Benchmark{
			Name: "dup", Suite: SuiteBMW, PaperIntervals: 10,
			Phases: []Phase{{Weight: 1, Behavior: validPhase("p")}},
		}
	}
	if _, err := NewRegistry([]*Benchmark{b(), b()}); err == nil {
		t.Fatal("duplicate benchmark accepted")
	}
}

func TestRegistryValidates(t *testing.T) {
	bad := &Benchmark{Name: "", Suite: SuiteBMW, PaperIntervals: 10}
	if _, err := NewRegistry([]*Benchmark{bad}); err == nil {
		t.Fatal("invalid benchmark accepted")
	}
	badW := &Benchmark{
		Name: "w", Suite: SuiteBMW, PaperIntervals: 10,
		Phases: []Phase{{Weight: -1, Behavior: validPhase("p")}},
	}
	if _, err := NewRegistry([]*Benchmark{badW}); err == nil {
		t.Fatal("negative phase weight accepted")
	}
}

func validPhase(name string) trace.PhaseBehavior {
	return trace.PhaseBehavior{
		Name:     name,
		Mix:      trace.BaseMix(),
		CodeSize: 100,
		Branch:   trace.BranchSpec{TakenBias: 0.5},
		Reg:      trace.RegDepSpec{MeanDepDist: 2, AvgSrcRegs: 1, WriteFraction: 0.5},
		Loads:    []trace.AccessPattern{{Kind: trace.PatternRandom, Weight: 1, Region: 4096}},
		Stores:   []trace.AccessPattern{{Kind: trace.PatternRandom, Weight: 1, Region: 4096}},
	}
}

func TestBehaviorAtMatchesPhaseAt(t *testing.T) {
	reg := MustStandardRegistry()
	b, _ := reg.Lookup("SPECint2006/astar")
	total := b.ScaledIntervals(40)
	for i := 0; i < total; i++ {
		want := b.Phases[b.PhaseAt(i, total)].Behavior.Name
		if got := b.BehaviorAt(i, total).Name; got != want {
			t.Fatalf("BehaviorAt(%d) = %q, want %q", i, got, want)
		}
	}
}

// BehaviorHashAt hashes each derived behaviour once; it must equal
// hashing BehaviorAt's behaviour for every interval of every benchmark,
// at interval counts that reach every input segment, or the cache keys
// built from it would change.
func TestBehaviorHashAtMatchesBehaviorHash(t *testing.T) {
	for _, b := range MustStandardRegistry().All() {
		for _, maxIntervals := range []int{4, 20, 150} {
			total := b.ScaledIntervals(maxIntervals)
			for i := 0; i < total; i++ {
				if got, want := b.BehaviorHashAt(i, total), b.BehaviorAt(i, total).BehaviorHash(); got != want {
					t.Fatalf("%s interval %d of %d: BehaviorHashAt %#x, BehaviorHash %#x", b.ID(), i, total, got, want)
				}
			}
		}
	}
}

func TestCrossSuiteTwinsIdentical(t *testing.T) {
	// The deliberate cross-suite twin phases must stay parameter-equal;
	// the headline uniqueness results depend on them (see DESIGN.md).
	reg := MustStandardRegistry()
	phase := func(benchID, phaseName string) *trace.PhaseBehavior {
		b, err := reg.Lookup(benchID)
		if err != nil {
			t.Fatal(err)
		}
		for i := range b.Phases {
			if b.Phases[i].Behavior.Name == phaseName {
				return &b.Phases[i].Behavior
			}
		}
		t.Fatalf("%s has no phase %q", benchID, phaseName)
		return nil
	}
	equalExceptName := func(a, b *trace.PhaseBehavior) bool {
		ca, cb := *a, *b
		ca.Name, cb.Name = "", ""
		// Compare scalar fields and pattern slices.
		if ca.Mix != cb.Mix || ca.CodeSize != cb.CodeSize || ca.Branch != cb.Branch ||
			ca.Reg != cb.Reg || ca.Jitter != cb.Jitter {
			return false
		}
		if len(ca.Loads) != len(cb.Loads) || len(ca.Stores) != len(cb.Stores) {
			return false
		}
		for i := range ca.Loads {
			if ca.Loads[i] != cb.Loads[i] {
				return false
			}
		}
		for i := range ca.Stores {
			if ca.Stores[i] != cb.Stores[i] {
				return false
			}
		}
		return true
	}
	twins := [][2][2]string{
		{{"BMW/speak", "speak/acoustic"}, {"SPECfp2006/sphinx3", "sphinx3/acoustic"}},
		{{"MediaBenchII/h264", "h264/motion"}, {"SPECint2006/h264ref", "h264ref/motion"}},
		{{"BioPerf/glimmer", "glimmer/icm"}, {"SPECint2006/hmmer", "hmmer_2006/viterbi"}},
		{{"BioPerf/fasta", "fasta/smithwaterman"}, {"SPECint2006/astar", "astar/regionway"}},
		{{"SPECint2000/gcc", "gcc_2000/parse"}, {"SPECint2006/gcc", "gcc_2006/parse"}},
		{{"SPECint2000/perlbmk", "perlbmk/interp"}, {"SPECint2006/perlbench", "perlbench/interp"}},
		{{"SPECint2000/eon", "eon/render"}, {"SPECfp2000/mesa", "mesa/rasterize"}},
	}
	for _, tw := range twins {
		a := phase(tw[0][0], tw[0][1])
		b := phase(tw[1][0], tw[1][1])
		if !equalExceptName(a, b) {
			t.Errorf("twin phases diverged: %s vs %s", tw[0][1], tw[1][1])
		}
	}
}

func TestSuiteNamesCanonicalOrder(t *testing.T) {
	reg := MustStandardRegistry()
	names := reg.SuiteNames()
	if len(names) != 7 {
		t.Fatalf("SuiteNames() = %v", names)
	}
	if names[0] != SuiteBioPerf {
		t.Fatalf("first suite = %s, want BioPerf", names[0])
	}
}
