// Package bench defines the five benchmark suites the paper studies — SPEC
// CPU2000 (int/fp), SPEC CPU2006 (int/fp), BioPerf, BioMetricsWorkload and
// MediaBench II, 77 benchmarks in total — as synthetic behaviour models:
// every benchmark is a schedule of trace.PhaseBehavior specifications plus
// its (paper Table 3) dynamic-execution interval count.
//
// The behaviour models are constructed from the paper's qualitative
// workload descriptions and public knowledge of the real programs; they are
// substitutes for PIN-instrumented binaries (see DESIGN.md), engineered so
// that the *shape* of the paper's phase-level results reproduces.
package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/trace"
)

// Suite identifies one of the seven sub-suites of the paper's figures
// (SPEC CPU is split into its integer and floating-point halves, exactly
// as Figures 4–6 report them).
type Suite string

const (
	SuiteBioPerf     Suite = "BioPerf"
	SuiteBMW         Suite = "BMW" // BioMetricsWorkload
	SuiteMediaBench  Suite = "MediaBenchII"
	SuiteSPECint2000 Suite = "SPECint2000"
	SuiteSPECfp2000  Suite = "SPECfp2000"
	SuiteSPECint2006 Suite = "SPECint2006"
	SuiteSPECfp2006  Suite = "SPECfp2006"
)

// SuiteInfo is a suite's registry metadata: what used to be hard-coded
// enum switches (domain-specific or not, presentation order) plus a
// human-readable description. Suites are open — any registry may carry
// suites beyond the paper's seven, loaded from declarative model files.
type SuiteInfo struct {
	// Name is the suite identifier, e.g. "BioPerf".
	Name Suite
	// Description is a one-line human-readable summary.
	Description string
	// DomainSpecific marks suites targeting a specific application
	// domain rather than general-purpose computing.
	DomainSpecific bool
}

// standardSuiteInfos is the paper's seven sub-suites in presentation
// order — the metadata NewRegistry derives for benchmarks that use the
// canonical suite names without declaring SuiteInfo explicitly.
var standardSuiteInfos = []SuiteInfo{
	{SuiteBioPerf, "BioPerf: bio-informatics workloads", true},
	{SuiteBMW, "BioMetricsWorkload: biometric recognition workloads", true},
	{SuiteSPECint2000, "SPEC CPU2000 integer benchmarks", false},
	{SuiteSPECfp2000, "SPEC CPU2000 floating-point benchmarks", false},
	{SuiteSPECint2006, "SPEC CPU2006 integer benchmarks", false},
	{SuiteSPECfp2006, "SPEC CPU2006 floating-point benchmarks", false},
	{SuiteMediaBench, "MediaBench II: media encode/decode workloads", true},
}

// IsStandardSuite reports whether s is one of the paper's seven 2008-era
// sub-suites (as opposed to a custom or emerging-era suite loaded from
// model files).
func IsStandardSuite(s Suite) bool {
	for _, si := range standardSuiteInfos {
		if si.Name == s {
			return true
		}
	}
	return false
}

// Layout selects how a benchmark's phases are laid out over its execution.
type Layout uint8

const (
	// LayoutSequential runs each phase as one contiguous stretch of
	// intervals, in order, sized by weight.
	LayoutSequential Layout = iota
	// LayoutPeriodic cycles through the phases repeatedly (block sizes
	// proportional to weight within a fixed period), modelling programs
	// that alternate between behaviours.
	LayoutPeriodic
)

// periodicPeriod is the cycle length, in intervals, of LayoutPeriodic.
const periodicPeriod = 16

// Phase is one scheduled program phase of a benchmark.
type Phase struct {
	// Weight is the fraction of the benchmark's execution spent in this
	// phase (weights are normalized over the benchmark).
	Weight float64
	// Behavior is the synthetic behaviour specification.
	Behavior trace.PhaseBehavior
}

// Benchmark is one benchmark's behaviour model.
type Benchmark struct {
	// Name is the benchmark's name, unique within its suite.
	Name string
	// Suite is the sub-suite the benchmark belongs to.
	Suite Suite
	// PaperIntervals is the number of 100M-instruction intervals the
	// paper's Table 3 reports for the benchmark (approximate where the
	// available copy of the table is ambiguous).
	PaperIntervals int
	// Layout arranges the phases over the execution.
	Layout Layout
	// Phases is the behaviour schedule; at least one.
	Phases []Phase
	// Inputs are the benchmark's reference inputs; empty means the
	// single DefaultInput. The execution is partitioned into one
	// contiguous run per input (paper section 2.4: intervals are sampled
	// "across all of its inputs").
	Inputs []Input

	deriveOnce sync.Once
	derived    [][]trace.PhaseBehavior // [input][phase]
	hashes     [][]uint64              // [input][phase] BehaviorHash of derived
}

// ID returns the globally unique "suite/name" identifier.
func (b *Benchmark) ID() string { return string(b.Suite) + "/" + b.Name }

// Validate checks the model for structural errors.
func (b *Benchmark) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("bench: benchmark with empty name")
	}
	if b.PaperIntervals < 1 {
		return fmt.Errorf("bench: %s: non-positive paper interval count", b.ID())
	}
	if len(b.Phases) == 0 {
		return fmt.Errorf("bench: %s: no phases", b.ID())
	}
	var total float64
	for i := range b.Phases {
		if b.Phases[i].Weight <= 0 {
			return fmt.Errorf("bench: %s: phase %d has non-positive weight", b.ID(), i)
		}
		total += b.Phases[i].Weight
		if err := b.Phases[i].Behavior.Validate(); err != nil {
			return fmt.Errorf("bench: %s: %w", b.ID(), err)
		}
	}
	if total <= 0 {
		return fmt.Errorf("bench: %s: zero total phase weight", b.ID())
	}
	seen := map[string]bool{}
	for _, in := range b.Inputs {
		if err := in.Validate(); err != nil {
			return fmt.Errorf("bench: %s: %w", b.ID(), err)
		}
		if seen[in.Name] {
			return fmt.Errorf("bench: %s: duplicate input %q", b.ID(), in.Name)
		}
		seen[in.Name] = true
	}
	return nil
}

// minScaledIntervals floors every benchmark's scaled interval count. The
// floor matters for clustering health: per-interval jitter makes each
// interval a distinct point, so sampling (with replacement) from a pool at
// least this large rarely duplicates rows — duplicate-row spikes would
// otherwise form artificial benchmark-specific micro-clusters. (The paper,
// with 256 rows per cluster, tolerates its duplicates; at this
// reproduction's scale they would dominate.)
const minScaledIntervals = 48

// ScaledIntervals maps the paper's Table 3 interval count into this
// reproduction's (much smaller) per-benchmark interval count:
// round(count^0.45), clamped to [minScaledIntervals, maxIntervals]. The
// sub-linear scaling preserves the ordering of benchmark lengths without
// requiring trillions of instructions.
func (b *Benchmark) ScaledIntervals(maxIntervals int) int {
	if maxIntervals < 4 {
		maxIntervals = 4
	}
	n := int(math.Round(math.Pow(float64(b.PaperIntervals), 0.45)))
	if n < minScaledIntervals {
		n = minScaledIntervals
	}
	if n > maxIntervals {
		n = maxIntervals
	}
	return n
}

// PhaseAt returns which phase interval index i (of total intervals)
// executes, honouring the benchmark's layout. With multiple inputs, each
// input's contiguous segment runs the full phase schedule.
func (b *Benchmark) PhaseAt(i, total int) int {
	if total <= 0 || i < 0 {
		return 0
	}
	if i >= total {
		i = total - 1
	}
	var sum float64
	for _, p := range b.Phases {
		sum += p.Weight
	}
	switch b.Layout {
	case LayoutPeriodic:
		pos := float64(i%periodicPeriod) / float64(periodicPeriod)
		var cum float64
		for j := range b.Phases {
			cum += b.Phases[j].Weight / sum
			if pos < cum {
				return j
			}
		}
		return len(b.Phases) - 1
	default: // LayoutSequential
		// Position within the interval's input segment.
		inputs := len(b.InputList())
		segLen := total / inputs
		if segLen < 1 {
			segLen = 1
		}
		local := i - b.InputAt(i, total)*segLen
		if local < 0 {
			local = 0
		}
		if local >= segLen {
			local = segLen - 1
		}
		pos := float64(local) / float64(segLen)
		var cum float64
		for j := range b.Phases {
			cum += b.Phases[j].Weight / sum
			if pos < cum {
				return j
			}
		}
		return len(b.Phases) - 1
	}
}

// derive builds every (input, phase) behaviour and its BehaviorHash,
// once per benchmark.
func (b *Benchmark) derive() {
	b.deriveOnce.Do(func() {
		inputs := b.InputList()
		b.derived = make([][]trace.PhaseBehavior, len(inputs))
		b.hashes = make([][]uint64, len(inputs))
		for ii, in := range inputs {
			b.derived[ii] = make([]trace.PhaseBehavior, len(b.Phases))
			b.hashes[ii] = make([]uint64, len(b.Phases))
			for pi := range b.Phases {
				b.derived[ii][pi] = in.apply(b.Phases[pi].Behavior)
				b.hashes[ii][pi] = b.derived[ii][pi].BehaviorHash()
			}
		}
	})
}

// BehaviorAt returns the behaviour of interval i (of total intervals),
// with the interval's input transformation applied. It is shared by
// every interval that runs the same (input, phase) pair and must not be
// modified.
func (b *Benchmark) BehaviorAt(i, total int) *trace.PhaseBehavior {
	b.derive()
	return &b.derived[b.InputAt(i, total)][b.PhaseAt(i, total)]
}

// BehaviorHashAt is BehaviorAt(i, total).BehaviorHash(), computed once
// per distinct (input, phase) behaviour instead of once per interval:
// the cache keys fold it for every interval of a roster.
func (b *Benchmark) BehaviorHashAt(i, total int) uint64 {
	b.derive()
	return b.hashes[b.InputAt(i, total)][b.PhaseAt(i, total)]
}

// IntervalSeed returns the deterministic generator seed for interval i.
func (b *Benchmark) IntervalSeed(i int) uint64 {
	return trace.HashString(b.ID()) ^ trace.Hash64(uint64(i)+0x51ed)
}

// Registry is an ordered collection of benchmarks grouped by suite,
// carrying per-suite metadata (SuiteInfo) in display order.
type Registry struct {
	benchmarks []*Benchmark
	byID       map[string]*Benchmark
	suites     []SuiteInfo   // display order
	suiteIdx   map[Suite]int // suite name -> index into suites
}

// NewRegistry builds a registry, validating every benchmark and rejecting
// duplicate IDs. Suite metadata is derived: canonical suite names get the
// standard metadata in the paper's presentation order; any other suites
// follow, sorted by name, with empty descriptions.
func NewRegistry(benchmarks []*Benchmark) (*Registry, error) {
	present := map[Suite]bool{}
	for _, b := range benchmarks {
		present[b.Suite] = true
	}
	var infos []SuiteInfo
	for _, si := range standardSuiteInfos {
		if present[si.Name] {
			infos = append(infos, si)
			delete(present, si.Name)
		}
	}
	var rest []Suite
	for s := range present {
		rest = append(rest, s)
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
	for _, s := range rest {
		infos = append(infos, SuiteInfo{Name: s})
	}
	return NewRegistryWithSuites(infos, benchmarks)
}

// NewRegistryWithSuites builds a registry with explicit suite metadata in
// display order. Every benchmark must belong to a declared suite, every
// declared suite must have at least one benchmark, and benchmark IDs must
// be unique.
//
// The registry's benchmark order is normalized to suite display order
// (stable within each suite). Registration order and display order
// therefore always agree — the invariant that makes a registry exported
// as a model file and reloaded reproduce the exact same dataset row
// order, and with it byte-identical pipeline exports.
func NewRegistryWithSuites(suites []SuiteInfo, benchmarks []*Benchmark) (*Registry, error) {
	r := &Registry{
		byID:     make(map[string]*Benchmark, len(benchmarks)),
		suiteIdx: make(map[Suite]int, len(suites)),
	}
	for _, si := range suites {
		if si.Name == "" {
			return nil, fmt.Errorf("bench: suite with empty name")
		}
		if _, dup := r.suiteIdx[si.Name]; dup {
			return nil, fmt.Errorf("bench: duplicate suite %q", si.Name)
		}
		r.suiteIdx[si.Name] = len(r.suites)
		r.suites = append(r.suites, si)
	}
	used := make(map[Suite]bool, len(suites))
	for _, b := range benchmarks {
		if err := b.Validate(); err != nil {
			return nil, err
		}
		if _, ok := r.suiteIdx[b.Suite]; !ok {
			return nil, fmt.Errorf("bench: benchmark %s belongs to undeclared suite %q", b.ID(), b.Suite)
		}
		if _, dup := r.byID[b.ID()]; dup {
			return nil, fmt.Errorf("bench: duplicate benchmark %s", b.ID())
		}
		used[b.Suite] = true
		r.byID[b.ID()] = b
		r.benchmarks = append(r.benchmarks, b)
	}
	for _, si := range r.suites {
		if !used[si.Name] {
			return nil, fmt.Errorf("bench: suite %q has no benchmarks", si.Name)
		}
	}
	sort.SliceStable(r.benchmarks, func(i, j int) bool {
		return r.suiteIdx[r.benchmarks[i].Suite] < r.suiteIdx[r.benchmarks[j].Suite]
	})
	return r, nil
}

// SuiteInfos returns the registry's suite metadata in display order.
func (r *Registry) SuiteInfos() []SuiteInfo {
	out := make([]SuiteInfo, len(r.suites))
	copy(out, r.suites)
	return out
}

// SuiteMeta returns one suite's metadata.
func (r *Registry) SuiteMeta(s Suite) (SuiteInfo, bool) {
	i, ok := r.suiteIdx[s]
	if !ok {
		return SuiteInfo{}, false
	}
	return r.suites[i], true
}

// IsDomainSpecific answers from the registry's suite metadata whether
// the suite targets a specific application domain. Unknown suites report
// false.
func (r *Registry) IsDomainSpecific(s Suite) bool {
	si, ok := r.SuiteMeta(s)
	return ok && si.DomainSpecific
}

// All returns all benchmarks in registration order.
func (r *Registry) All() []*Benchmark {
	out := make([]*Benchmark, len(r.benchmarks))
	copy(out, r.benchmarks)
	return out
}

// Len returns the number of benchmarks.
func (r *Registry) Len() int { return len(r.benchmarks) }

// BySuite returns the benchmarks of one suite, in registration order.
func (r *Registry) BySuite(s Suite) []*Benchmark {
	var out []*Benchmark
	for _, b := range r.benchmarks {
		if b.Suite == s {
			out = append(out, b)
		}
	}
	return out
}

// Lookup finds a benchmark by "suite/name" ID or by bare name (the latter
// only if unambiguous).
func (r *Registry) Lookup(name string) (*Benchmark, error) {
	if b, ok := r.byID[name]; ok {
		return b, nil
	}
	var found *Benchmark
	for _, b := range r.benchmarks {
		if b.Name == name {
			if found != nil {
				return nil, fmt.Errorf("bench: benchmark name %q is ambiguous (%s, %s)", name, found.ID(), b.ID())
			}
			found = b
		}
	}
	if found == nil {
		return nil, fmt.Errorf("bench: unknown benchmark %q", name)
	}
	return found, nil
}

// FilterSuites narrows the registry to the comma-separated suite names
// in spec — the roster contract shared by the phasechar CLI (-suites)
// and the characterization service's job spec, so a job submitted over
// HTTP selects exactly the roster the equivalent one-shot run would.
// Names match case-insensitively; an unknown or empty name is an error,
// never a silently smaller run.
func (r *Registry) FilterSuites(spec string) (*Registry, error) {
	want := map[Suite]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("bench: suite list %q has an empty entry", spec)
		}
		found := false
		for _, si := range r.suites {
			if strings.EqualFold(string(si.Name), name) {
				want[si.Name] = true
				found = true
				break
			}
		}
		if !found {
			var known []string
			for _, si := range r.suites {
				known = append(known, string(si.Name))
			}
			return nil, fmt.Errorf("bench: unknown suite %q (suites: %s)", name, strings.Join(known, ", "))
		}
	}
	var suites []SuiteInfo
	for _, si := range r.suites {
		if want[si.Name] {
			suites = append(suites, si)
		}
	}
	var keep []*Benchmark
	for _, b := range r.benchmarks {
		if want[b.Suite] {
			keep = append(keep, b)
		}
	}
	return NewRegistryWithSuites(suites, keep)
}

// SuiteNames returns the registry's suites in display order: canonical
// suites in the paper's presentation order, loaded suites in declaration
// order after them.
func (r *Registry) SuiteNames() []Suite {
	out := make([]Suite, len(r.suites))
	for i, si := range r.suites {
		out[i] = si.Name
	}
	return out
}
