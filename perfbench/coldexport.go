package main

// cold-export: one cold quick export per op over the full 77-benchmark
// roster — core.Run, Result.WriteJSON and Corpus.IngestResult into the
// run's corpus, `phasechar -quick -corpus <run corpus> export` — on a
// fresh pipeline seed. Trace generation and MICA do nearly all of the
// work; stats, cluster and corpus little. It is the workload a faster
// characterize kernel must move and analysis changes must not.
//
// The op runs without a vector cache. On the shared host the benchmark
// was built on, writing a cold op's 1,226 cache entries cost 0.1 s of
// kernel CPU at first and 1.0 s an hour later (file and fan-out
// directory creation), which no code change caused; the cache write
// path is measured by the service-mix appends and the warm-reanalyze
// set-up instead. The in-process dataset memo is off so that peak RSS
// does not grow with the number of ops.

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/corpus"
)

// quickConfig is the phasechar -quick preset.
func quickConfig() core.Config {
	cfg := core.TestConfig()
	cfg.IntervalLength = 5000
	cfg.SamplesPerBenchmark = 20
	cfg.MaxIntervalsPerBenchmark = 40
	cfg.NumClusters = 150
	cfg.NumProminent = 50
	return cfg
}

// coldConfig is one cold-export op's configuration.
func coldConfig(o *options, op int) core.Config {
	cfg := quickConfig()
	if o.smoke {
		cfg.IntervalLength = 1000
		cfg.SamplesPerBenchmark = 4
		cfg.MaxIntervalsPerBenchmark = 8
		cfg.NumClusters = 30
		cfg.NumProminent = 10
	}
	cfg.Seed = deriveSeed(o.seed, uint64(op))
	cfg.MemoBudget = -1
	return cfg
}

type coldState struct {
	reg    *bench.Registry
	corpus *corpus.Corpus
	dir    string
}

// opSummary is what the checks need from one finished op. Results are
// dropped as soon as an op ends, so peak RSS reflects one op's working
// set rather than the number of ops in the window.
type opSummary struct {
	cfg          core.Config
	reg          *bench.Registry
	unique, hits int
	instr        uint64
	selected     []int
	json         []byte
	err          error
}

func summarize(reg *bench.Registry, cfg core.Config, res *core.Result, json []byte, err error) opSummary {
	s := opSummary{cfg: cfg, reg: reg, json: json, err: err}
	if res != nil {
		s.unique, s.hits, s.instr = res.Dataset.UniqueIntervals, res.Dataset.CacheHits, res.Dataset.Instructions
	}
	return s
}

func runColdExport(o *options) (*outcome, error) {
	cleanup, err := runScratch(o)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	setups := 5
	if o.trace || o.smoke {
		setups = 1
	}
	hc := newHostClock()
	st, setup, err := repeatSetup(hc, setups, func() (*coldState, error) { return coldSetup(o) }, func(s *coldState) { os.RemoveAll(s.dir) })
	if err != nil {
		return nil, err
	}
	if o.trace {
		return coldTraced(o, st)
	}

	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	mt := startMeter()
	var ops []opSummary
	var w tally
	for w.wall < o.seconds || len(ops) < 2 {
		cfg := coldConfig(o, len(ops))
		var res *core.Result
		var buf []byte
		var err error
		tm := hc.time(func() { res, buf, err = coldExport(st, cfg) })
		w.add(tm, 1)
		w.primary(tm.wall, "")
		ops = append(ops, summarize(st.reg, cfg, res, buf, err))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	mt.report(o.log, w.ops, w.wall)

	out := &outcome{attempted: len(ops)}
	checkCache, err := tempDir(o, "check-cache-*")
	if err != nil {
		return nil, err
	}
	for i, op := range ops {
		if err := checkCold(o, i, op, checkCache); err != nil {
			fmt.Fprintf(o.log, "check failed: cold-export op %d: %v\n", i, err)
			out.failed++
		}
	}
	out.metrics, out.raw = e2e(hc, setup, &w, rss)
	return out, nil
}

// coldSetup builds the roster and the run corpus, then runs one toy
// export so lazy initialization is paid before timing.
func coldSetup(o *options) (*coldState, error) {
	reg, err := bench.StandardRegistry()
	if err != nil {
		return nil, err
	}
	dir, err := tempDir(o, "setup-*")
	if err != nil {
		return nil, err
	}
	warmCorpus, err := corpus.Open(dir+"/warm-corpus", nil)
	if err != nil {
		return nil, err
	}
	warm := coldConfig(&options{smoke: true, seed: o.seed}, -1)
	if _, _, err := coldExport(&coldState{reg: reg, corpus: warmCorpus}, warm); err != nil {
		return nil, err
	}
	c, err := corpus.Open(dir+"/corpus", nil)
	if err != nil {
		return nil, err
	}
	return &coldState{reg: reg, corpus: c, dir: dir}, nil
}

// coldExport is the untraced op: run, export, ingest.
func coldExport(st *coldState, cfg core.Config) (*core.Result, []byte, error) {
	res, err := core.Run(st.reg, cfg, nil)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return nil, nil, err
	}
	if _, err := st.corpus.IngestResult(res); err != nil {
		return nil, nil, err
	}
	return res, buf.Bytes(), nil
}

// checkCold verifies one export: fully cold, its instruction total
// consistent, and a rerun through the vector and stage-artifact cache —
// computed on a cache the run's checks share, then resumed from it —
// exports identical bytes.
func checkCold(o *options, i int, op opSummary, cacheDir string) error {
	if op.err != nil {
		return op.err
	}
	wantHits := 0
	if o.plant && i == 0 {
		wantHits = 1 // planted wrong expectation
	}
	if op.hits != wantHits {
		return fmt.Errorf("cache hits %d, want %d", op.hits, wantHits)
	}
	if op.instr != uint64(op.unique)*uint64(op.cfg.IntervalLength) {
		return fmt.Errorf("instructions %d != %d unique intervals x %d", op.instr, op.unique, op.cfg.IntervalLength)
	}
	cfg := op.cfg
	cfg.CacheDir = cacheDir
	if err := checkRerun(op.reg, cfg, op.json); err != nil {
		return fmt.Errorf("cached rerun: %w", err)
	}
	cfg.Resume = true
	return checkRerun(op.reg, cfg, op.json)
}

// checkRerun reruns cfg and compares its export with want.
func checkRerun(reg *bench.Registry, cfg core.Config, want []byte) error {
	res, err := core.Run(reg, cfg, nil)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), want) {
		return fmt.Errorf("exported different bytes (resume %v)", cfg.Resume)
	}
	return nil
}

// coldTraced replays each op with spans (see replay.go), then runs the
// untraced op with a second corpus as the reference the replay must
// match; only the replay is timed as the traced op.
func coldTraced(o *options, st *coldState) (*outcome, error) {
	t := newTracer()
	ref := &coldState{reg: st.reg, dir: st.dir}
	var err error
	if ref.corpus, err = corpus.Open(st.dir+"/ref-corpus", nil); err != nil {
		return nil, err
	}
	checkCache, err := tempDir(o, "check-cache-*")
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	var counts layerCounts
	var generated []core.IntervalRef
	var refTimes, wall []float64
	// Each traced op is followed by its reference op, so half of -seconds
	// of traced ops keeps the run near the untraced one's length.
	for op := 0; sum(wall) < o.seconds/2 || op < 2; op++ {
		cfg := coldConfig(o, op)
		out.attempted++
		t0 := time.Now()
		root := t.begin("op", op, -1, 1)
		res, n, rerr := replayRun(t, op, root, st.reg, cfg, nil)
		var buf bytes.Buffer
		if rerr == nil {
			s := t.begin("core.export", op, root, 1)
			rerr = res.WriteJSON(&buf)
			t.end(s)
		}
		if rerr == nil {
			s := t.begin("corpus.ingest", op, root, 1)
			_, rerr = st.corpus.IngestResult(res)
			t.end(s)
		}
		t.end(root)
		wall = append(wall, seconds(time.Since(t0)))
		if rerr != nil {
			fmt.Fprintf(o.log, "check failed: traced cold-export op %d: %v\n", op, rerr)
			out.failed++
			continue
		}
		counts.add(n)
		generated = append(generated, n.generated...)

		r0 := time.Now()
		want, wantJSON, err := coldExport(ref, cfg)
		refTimes = append(refTimes, seconds(time.Since(r0)))
		if err == nil {
			err = sameResult(res, want, buf.Bytes(), wantJSON)
		}
		if err == nil {
			err = checkCold(o, op, summarize(st.reg, cfg, want, wantJSON, nil), checkCache)
		}
		if err != nil {
			fmt.Fprintf(o.log, "check failed: traced cold-export op %d: %v\n", op, err)
			out.failed++
		}
	}
	ilpS, ppmS, err := subAnalyzerSplit(generated, coldConfig(o, 0).IntervalLength, 0)
	if err != nil {
		return nil, err
	}
	m := layerMetrics(t, counts, ilpS, ppmS)
	m["traced.ops_per_s"] = metric{float64(len(wall)) / sum(wall), "1/s"}
	m["untraced.ops_per_s"] = metric{float64(len(refTimes)) / sum(refTimes), "1/s"}
	m["untraced.instr_per_s"] = metric{float64(counts.instr) / sum(refTimes), "1/s"}
	if st, err := st.corpus.Stats(); err == nil {
		m["corpus.records"] = metric{float64(st.Records), "count"}
	}
	finishTrace(o, t, m)
	out.metrics = m
	return out, nil
}
