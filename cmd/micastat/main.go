// Command micastat characterizes one benchmark with the 69 MICA
// microarchitecture-independent characteristics: the aggregate vector over
// the whole (scaled) execution, and optionally the per-interval vectors
// that expose its time-varying phase behaviour.
//
// Usage:
//
//	micastat [-interval N] [-per-interval] [-list] <suite/benchmark | benchmark>
//
// Examples:
//
//	micastat -list
//	micastat BioPerf/grappa
//	micastat -per-interval SPECint2006/astar
//	micastat -timeline -cache .cache -incremental SPECint2006/astar
//
// With -cache the -timeline analysis persists as one artifact: a rerun
// with the same settings loads it, and a rerun with other settings reuses
// the cached interval vectors. With -incremental the timeline's interval
// vectors also fold into the benchmark's cached running summary: reruns
// fold nothing, and a deeper timeline (larger -max-intervals) folds
// exactly the intervals it adds.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/cliobs"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mica"
	"repro/internal/prof"
	"repro/internal/trace"
	"repro/internal/viz"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "micastat:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		intervalLen  = flag.Int("interval", 20000, "instructions per interval")
		maxIntervals = flag.Int("max-intervals", 60, "cap on the benchmark's interval count")
		perInterval  = flag.Bool("per-interval", false, "print one row per interval (phase view)")
		timeline     = flag.Bool("timeline", false, "detect phases and print the execution timeline strip")
		workers      = flag.Int("workers", 0, "parallel workers for timeline analysis (0: GOMAXPROCS; result is worker-count independent)")
		kiviat       = flag.Bool("kiviat", false, "print an ASCII kiviat over the paper's 12 key characteristics")
		traceFile    = flag.String("trace", "", "characterize a binary trace file instead of a benchmark model")
		list         = flag.Bool("list", false, "list available benchmarks and exit")
		models       = flag.String("models", "", "workload-model file or directory of *.json files: loaded suites replace same-named built-in suites and append otherwise")
		cacheDir     = flag.String("cache", "", "artifact cache directory for -timeline analysis: a rerun loads the cached timeline or reuses its interval vectors (empty: no cache)")
		cpuProf      = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf      = flag.String("memprofile", "", "write a heap profile to this file")
		obsFlags     = cliobs.RegisterObsFlags(flag.CommandLine)
		incremental  = cliobs.RegisterIncremental(flag.CommandLine)
	)
	flag.Parse()
	if *cacheDir != "" && !*timeline {
		// Refusing beats silently running uncached: the cache only holds
		// timeline artifacts and interval vectors, which only -timeline
		// consumes.
		return fmt.Errorf("-cache requires -timeline (the cache stores the timeline analysis and its interval vectors)")
	}
	if *incremental && (!*timeline || *cacheDir == "") {
		return fmt.Errorf("-incremental requires -timeline and -cache (it folds the timeline's interval vectors into the benchmark's cached running summary)")
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		// A profile that fails to flush is a failed run, not a warning.
		if perr := stopProf(); perr != nil && err == nil {
			err = fmt.Errorf("profile: %w", perr)
		}
	}()

	m, finishObs, err := obsFlags.Setup("micastat")
	if err != nil {
		return err
	}
	defer finishObs(&err)

	if *traceFile != "" {
		return characterizeTrace(*traceFile)
	}

	reg, err := bench.StandardRegistry()
	if err != nil {
		return err
	}
	if *models != "" {
		mf, err := bench.ReadModelFiles(*models)
		if err != nil {
			return err
		}
		if reg, err = reg.WithModels(mf); err != nil {
			return err
		}
	}
	if *list {
		for _, s := range reg.SuiteNames() {
			for _, b := range reg.BySuite(s) {
				fmt.Printf("  %-30s %d phases, %d paper intervals\n", b.ID(), len(b.Phases), b.PaperIntervals)
			}
		}
		return nil
	}
	if flag.NArg() != 1 {
		flag.Usage()
		return fmt.Errorf("expected one benchmark name")
	}
	b, err := reg.Lookup(flag.Arg(0))
	if err != nil {
		return err
	}

	total := b.ScaledIntervals(*maxIntervals)
	fmt.Printf("%s: %d intervals x %d instructions, %d phases\n\n", b.ID(), total, *intervalLen, len(b.Phases))

	if *timeline {
		cfg := core.DefaultConfig()
		cfg.IntervalLength = *intervalLen
		cfg.MaxIntervalsPerBenchmark = *maxIntervals
		cfg.Workers = *workers
		cfg.CacheDir = *cacheDir
		cfg.Metrics = m
		tl, err := core.AnalyzeTimeline(b, cfg, 8)
		if err != nil {
			return err
		}
		fmt.Printf("detected %d phases, %d transitions:\n  %s\n", tl.NumPhases, tl.Transitions, tl.Strip())
		for p, share := range tl.PhaseShares() {
			fmt.Printf("  phase %c: %5.1f%% of execution\n", 'A'+p, 100*share)
		}
		if *incremental {
			folded, cum, err := core.FoldTimelineStats(b, cfg, tl)
			if err != nil {
				return err
			}
			fmt.Printf("cumulative statistics: folded %d new of %d intervals (%d observed across runs):\n",
				folded, tl.Vectors.Rows, cum.Count)
			cs := cum.Stats()
			for _, name := range []string{"mix_load", "mix_store", "mix_branch", "ilp_64"} {
				if met, ok := mica.MetricByName(name); ok {
					fmt.Printf("  %-22s %10.4f ± %.4f\n", name, cs.Mean[met.Index], cs.Std[met.Index])
				}
			}
		}
		fmt.Println()
	}

	agg := mica.NewAnalyzer()
	ia := mica.NewAnalyzer()
	names := mica.MetricNames()

	if *perInterval {
		fmt.Printf("%-4s %-28s %8s %8s %8s %8s %8s %8s\n",
			"ivl", "phase", "ld", "st", "br", "ilp64", "GAs_8b", "dfoot64")
	}
	buf := make([]isa.Instruction, trace.DefaultBatchSize)
	for i := 0; i < total; i++ {
		ia.Reset()
		beh := b.BehaviorAt(i, total)
		err := trace.GenerateIntervalBatches(beh, b.IntervalSeed(i), *intervalLen, buf, func(batch []isa.Instruction) {
			agg.RecordBatch(batch)
			ia.RecordBatch(batch)
		})
		if err != nil {
			return err
		}
		if *perInterval {
			v := ia.Vector()
			get := func(name string) float64 {
				m, ok := mica.MetricByName(name)
				if !ok {
					return 0
				}
				return v[m.Index]
			}
			fmt.Printf("%-4d %-28s %8.3f %8.3f %8.3f %8.2f %8.3f %8.0f\n",
				i, beh.Name, get("mix_load"), get("mix_store"), get("mix_branch"),
				get("ilp_64"), get("GAs_8bits"), get("data_footprint_64B"))
		}
	}

	fmt.Printf("\naggregate characterization (%d instructions):\n", agg.Total())
	v := agg.Vector()
	if *kiviat {
		if err := printKiviat(b.ID(), v); err != nil {
			return err
		}
	}
	for c := 0; c < mica.NumCategories; c++ {
		cat := mica.Category(c)
		fmt.Printf("\n%s:\n", cat)
		for _, m := range mica.ByCategory(cat) {
			fmt.Printf("  %-22s %12.5g\n", names[m.Index], v[m.Index])
		}
	}
	return nil
}

// characterizeTrace runs the 69-characteristic analysis over a stored
// binary trace (see the trace package's encoding) — the bring-your-own
// trace workflow.
func characterizeTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := trace.NewReader(f)
	a := mica.NewAnalyzer()
	var ins isa.Instruction
	for {
		err := r.Next(&ins)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		a.Record(&ins)
	}
	fmt.Printf("%s: %d instructions\n", path, a.Total())
	v := a.Vector()
	names := mica.MetricNames()
	for c := 0; c < mica.NumCategories; c++ {
		cat := mica.Category(c)
		fmt.Printf("\n%s:\n", cat)
		for _, m := range mica.ByCategory(cat) {
			fmt.Printf("  %-22s %12.5g\n", names[m.Index], v[m.Index])
		}
	}
	return nil
}

// printKiviat renders the benchmark's aggregate vector as an ASCII kiviat
// over the paper's Table 2 key characteristics, scaled against rough
// workload-space bounds.
func printKiviat(id string, v []float64) error {
	key := mica.PaperKeyCharacteristics()
	axes := make([]viz.Axis, len(key))
	values := make([]float64, len(key))
	for i, m := range key {
		val := v[m.Index]
		hi := 1.0
		switch m.Category {
		case mica.CatMemoryFootprint:
			hi = 20000
		case mica.CatRegisterTraffic:
			hi = 4
		}
		axes[i] = viz.Axis{Name: m.Name, Min: 0, Max: hi, Mean: hi / 2, Std: hi / 4}
		values[i] = val
	}
	k := viz.Kiviat{Title: id + " (paper Table 2 axes):", Axes: axes, Values: values}
	out, err := k.ASCII(44)
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(out)
	return nil
}
