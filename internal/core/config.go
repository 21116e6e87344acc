// Package core wires the paper's six-step phase-level characterization
// methodology end to end: microarchitecture-independent characterization of
// instruction intervals, per-benchmark interval sampling, PCA, k-means
// clustering with BIC, prominent-phase extraction, genetic-algorithm key
// characteristic selection, and the suite-level coverage / diversity /
// uniqueness analyses of section 5.
package core

import (
	"fmt"
	"runtime"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/ga"
	"repro/internal/obs"
)

// Config holds every knob of the pipeline. DefaultConfig returns the
// scaled-down equivalents of the paper's settings (see DESIGN.md for the
// mapping); zero-valued fields of a hand-built Config are filled with the
// defaults by Validate.
type Config struct {
	// IntervalLength is the number of synthetic instructions per
	// interval (the paper's 100M-instruction granularity, scaled down).
	IntervalLength int
	// SamplesPerBenchmark is how many intervals are sampled (with
	// replacement) per benchmark — the paper's 1,000.
	SamplesPerBenchmark int
	// MaxIntervalsPerBenchmark caps each benchmark's scaled interval
	// count.
	MaxIntervalsPerBenchmark int
	// SampleByBenchmark selects the paper's equal-weight-per-benchmark
	// sampling (true). False disables sampling and uses every interval
	// once — the ablation of section 2.4.
	SampleByBenchmark bool
	// NumClusters is k for the k-means step (the paper's 300).
	NumClusters int
	// NumProminent is how many top-weight clusters become "prominent
	// phases" (the paper's 100).
	NumProminent int
	// MinPCStd is the principal-component retention threshold (the
	// paper keeps components with standard deviation > 1).
	MinPCStd float64
	// KeyCharacteristics is the GA target cardinality (the paper's 12).
	KeyCharacteristics int
	// Workers bounds the pipeline's parallelism — characterization,
	// clustering and GA fitness evaluation; 0 = GOMAXPROCS. Every stage is worker-count deterministic: a run's
	// Result (and its JSON export) is byte-identical for any Workers.
	Workers int
	// Seed makes the whole pipeline deterministic.
	Seed int64
	// Metrics, when non-nil, receives the run's observability data:
	// per-stage spans (characterize, pca, kmeans, prominent, ga.select,
	// timeline.*) and the cache/pool/cluster/GA counters documented in
	// DESIGN.md. Nil disables observability at near-zero cost; metrics
	// never feed back into the pipeline, so results stay byte-identical
	// either way.
	Metrics *obs.Metrics `json:"-"`
	// ReportPath, when non-empty, makes Run write the machine-readable
	// JSON run report (obs.Report: spans + counters) to this file when
	// the run completes. If Metrics is nil, Validate creates a collector
	// so the report has something to say.
	ReportPath string
	// CacheDir, when non-empty, enables the persistent artifact cache
	// (internal/fcache) rooted at that directory: characterized interval
	// vectors, dataset shards and every analysis stage's output are
	// stored under content-addressed keys, and every later run looks its
	// artifacts up before computing, with bit-identical results. An
	// unsharded run whose roster extends the latest cached run's roster
	// characterizes only the added benchmarks (see incremental.go).
	// Empty disables caching: every run computes everything.
	CacheDir string
	// Shard, when > 1, makes Run a merge run over that many shards:
	// shard i holds the benchmarks whose registry position p satisfies
	// p % Shard == i. Instead of characterizing everything in-process,
	// each shard's dataset artifact is loaded from the cache (shards
	// computed elsewhere via EncodeShard / `phasechar -shard i/n`), any
	// missing shard is characterized locally, and the analysis stages run
	// over the merged dataset. Requires CacheDir. The merged result is
	// byte-identical to the single-process run at any worker count and
	// any cache state. 0 or 1 means unsharded.
	Shard int
	// MemoBudget is ignored: the in-process dataset memo it bounded is
	// gone, and a repeat characterization is served from the cache's
	// dataset artifact instead.
	//
	// Deprecated: kept only so the benchmark module (perfbench), which
	// sets it, builds unchanged.
	MemoBudget int64
	// Resume is ignored: with CacheDir set, every stage looks up its
	// artifact first and recomputes only what is missing or fails
	// validation, so a rerun with the same config always resumes.
	//
	// Deprecated: kept only so the benchmark module (perfbench), which
	// sets it, builds unchanged.
	Resume bool
	// KMeans configures the clustering step. A zero KMeans.Seed means
	// "inherit Config.Seed" and a zero KMeans.Workers means "inherit
	// Config.Workers" — Validate resolves both, so a caller who wants
	// the clustering stage decoupled from the pipeline seed must set
	// KMeans.Seed to a nonzero value. (Inside the cluster package
	// itself, seed 0 is an ordinary seed: sub-seeds are derived with a
	// SplitMix64-style hash, never compared against 0.)
	KMeans cluster.Options
	// GA configures the key-characteristic search. Zero GA.Seed /
	// GA.Workers inherit Config.Seed / Config.Workers exactly as for
	// KMeans above.
	GA ga.Config
	// Registry, when non-nil, names the benchmark roster the run is
	// over; Run falls back to it when called with a nil registry
	// argument. The registry never feeds the artifact key chain directly
	// — dataset and stage keys fold each benchmark's behavior hashes, so
	// two registries with identical rosters share cache entries and a
	// roster change (loaded models, filtered suites) re-keys exactly the
	// affected artifacts.
	Registry *bench.Registry `json:"-"`
}

// DefaultConfig returns the default, laptop-scale configuration.
func DefaultConfig() Config {
	return Config{
		IntervalLength:           20000,
		SamplesPerBenchmark:      150,
		MaxIntervalsPerBenchmark: 160,
		SampleByBenchmark:        true,
		NumClusters:              300,
		NumProminent:             100,
		MinPCStd:                 1.0,
		KeyCharacteristics:       12,
		Seed:                     1,
		KMeans:                   cluster.Options{Restarts: 3, MaxIters: 60},
		GA:                       ga.Config{},
	}
}

// TestConfig returns a tiny configuration for fast tests: a few seconds of
// work end to end.
func TestConfig() Config {
	cfg := DefaultConfig()
	cfg.IntervalLength = 2000
	cfg.SamplesPerBenchmark = 8
	cfg.MaxIntervalsPerBenchmark = 16
	cfg.NumClusters = 40
	cfg.NumProminent = 20
	cfg.KMeans = cluster.Options{Restarts: 2, MaxIters: 25}
	cfg.GA = ga.Config{Populations: 2, PopulationSize: 10, MaxGenerations: 12, Patience: 5}
	return cfg
}

// Validate fills zero fields with defaults and rejects inconsistent
// settings.
func (c *Config) Validate() error {
	def := DefaultConfig()
	if c.IntervalLength == 0 {
		c.IntervalLength = def.IntervalLength
	}
	if c.SamplesPerBenchmark == 0 {
		c.SamplesPerBenchmark = def.SamplesPerBenchmark
	}
	if c.MaxIntervalsPerBenchmark == 0 {
		c.MaxIntervalsPerBenchmark = def.MaxIntervalsPerBenchmark
	}
	if c.NumClusters == 0 {
		c.NumClusters = def.NumClusters
	}
	if c.NumProminent == 0 {
		c.NumProminent = def.NumProminent
	}
	if c.MinPCStd == 0 {
		c.MinPCStd = def.MinPCStd
	}
	if c.KeyCharacteristics == 0 {
		c.KeyCharacteristics = def.KeyCharacteristics
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ReportPath != "" && c.Metrics == nil {
		c.Metrics = obs.New()
	}
	// Resolve the documented zero-field inheritance of the per-stage
	// knobs: clustering and GA follow the pipeline seed and worker count
	// (and the observability collector) unless explicitly overridden.
	if c.KMeans.Metrics == nil {
		c.KMeans.Metrics = c.Metrics
	}
	if c.GA.Metrics == nil {
		c.GA.Metrics = c.Metrics
	}
	if c.KMeans.Seed == 0 {
		c.KMeans.Seed = c.Seed
	}
	if c.KMeans.Workers == 0 {
		c.KMeans.Workers = c.Workers
	}
	if c.GA.Seed == 0 {
		c.GA.Seed = c.Seed
	}
	if c.GA.Workers == 0 {
		c.GA.Workers = c.Workers
	}
	if c.IntervalLength < 100 {
		return fmt.Errorf("core: interval length %d too small (min 100)", c.IntervalLength)
	}
	if c.SamplesPerBenchmark < 1 {
		return fmt.Errorf("core: samples per benchmark %d < 1", c.SamplesPerBenchmark)
	}
	if c.NumProminent > c.NumClusters {
		return fmt.Errorf("core: %d prominent phases exceed %d clusters", c.NumProminent, c.NumClusters)
	}
	if c.MinPCStd < 0 {
		return fmt.Errorf("core: negative PC retention threshold")
	}
	if c.Shard < 0 {
		return fmt.Errorf("core: negative shard count %d", c.Shard)
	}
	if c.Shard > 1 && c.CacheDir == "" {
		return fmt.Errorf("core: sharded runs need a cache directory (shard artifacts live there)")
	}
	return nil
}
