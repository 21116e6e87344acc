// Command tracegen dumps the synthetic instruction stream of one benchmark
// interval in a human-readable format — useful for inspecting what the
// workload generator actually emits — or, with -all -o, writes every
// interval of the benchmark to one binary trace file, generating intervals
// in parallel.
//
// Usage:
//
//	tracegen [-n N] [-interval-index I] [-all] [-workers W] <suite/benchmark | benchmark>
//
// Examples:
//
//	tracegen -n 40 BioPerf/grappa
//	tracegen -all -n 2000 -workers 8 -o grappa.trace BioPerf/grappa
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/cliobs"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		n            = flag.Int("n", 50, "number of instructions to dump (per interval with -all)")
		intervalIdx  = flag.Int("interval-index", 0, "which interval of the benchmark to generate")
		maxIntervals = flag.Int("max-intervals", 60, "cap on the benchmark's interval count")
		all          = flag.Bool("all", false, "with -o: write every interval of the benchmark, in order, to one trace file")
		workers      = flag.Int("workers", 0, "parallel workers for -all generation (0: GOMAXPROCS; output is worker-count independent)")
		outFile      = flag.String("o", "", "write a binary trace to this file instead of text to stdout")
		models       = flag.String("models", "", "workload-model file or directory of *.json files: loaded suites replace same-named built-in suites and append otherwise")
		obsFlags     = cliobs.RegisterObsFlags(flag.CommandLine)
	)
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		return fmt.Errorf("expected one benchmark name")
	}

	m, finishObs, err := obsFlags.Setup("tracegen")
	if err != nil {
		return err
	}
	defer finishObs(&err)

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
	b, err := reg.Lookup(flag.Arg(0))
	if err != nil {
		return err
	}
	total := b.ScaledIntervals(*maxIntervals)

	if *all {
		if *outFile == "" {
			return fmt.Errorf("-all requires -o (binary traces only)")
		}
		return writeAllIntervals(b, total, *n, *workers, *outFile, m)
	}

	if *intervalIdx < 0 || *intervalIdx >= total {
		return fmt.Errorf("interval index %d out of [0,%d)", *intervalIdx, total)
	}
	beh := b.BehaviorAt(*intervalIdx, total)

	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		defer f.Close()
		tw := trace.NewWriter(f)
		var werr error
		err = trace.GenerateInterval(beh, b.IntervalSeed(*intervalIdx), *n, func(ins *isa.Instruction) {
			if werr == nil {
				werr = tw.Write(ins)
			}
		})
		if err != nil {
			return err
		}
		if werr != nil {
			return werr
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		fmt.Printf("wrote %d instructions of %s (%s) to %s\n", tw.Count(), b.ID(), beh.Name, *outFile)
		return f.Close()
	}

	fmt.Printf("%s interval %d/%d, phase %q:\n", b.ID(), *intervalIdx, total, beh.Name)
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	return trace.GenerateInterval(beh, b.IntervalSeed(*intervalIdx), *n, func(ins *isa.Instruction) {
		fmt.Fprintln(w, ins.String())
	})
}

// writeAllIntervals generates every interval of the benchmark concurrently
// — each interval encodes into its own in-memory buffer — and concatenates
// the buffers in interval order, so the file is byte-identical for any
// worker count.
func writeAllIntervals(b *bench.Benchmark, total, perInterval, workers int, path string, m *obs.Metrics) error {
	bufs := make([]bytes.Buffer, total)
	counts := make([]uint64, total)
	errs := make([]error, total)
	nw := par.Workers(workers)
	span := m.StartSpan("generate").SetRows(total).SetWorkers(nw)
	par.For(nw, total, func(i int) {
		tw := trace.NewWriter(&bufs[i])
		var werr error
		err := trace.GenerateInterval(b.BehaviorAt(i, total), b.IntervalSeed(i), perInterval,
			func(ins *isa.Instruction) {
				if werr == nil {
					werr = tw.Write(ins)
				}
			})
		switch {
		case err != nil:
			errs[i] = fmt.Errorf("interval %d: %w", i, err)
		case werr != nil:
			errs[i] = fmt.Errorf("interval %d: %w", i, werr)
		default:
			errs[i] = tw.Flush()
			counts[i] = tw.Count()
		}
	})
	span.End()
	if err := par.FirstError(errs); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var written uint64
	for i := range bufs {
		if _, err := f.Write(bufs[i].Bytes()); err != nil {
			return err
		}
		written += counts[i]
	}
	fmt.Printf("wrote %d instructions (%d intervals x %d) of %s to %s\n",
		written, total, perInterval, b.ID(), path)
	return f.Close()
}
