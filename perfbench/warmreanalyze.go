package main

// warm-reanalyze: "characterize once, re-analyze often". Set-up fills a
// vector cache for the default sample (77 benchmarks x 150 rows) at a
// reduced interval length — analysis cost does not depend on it. Each op
// reruns the whole analysis on that cache with Resume off (the CLI
// default) and fresh k-means and GA seeds, selects the paper's 12 key
// characteristics and exports. PCA, k-means, the GA and fcache reads do
// the work; trace generation and MICA do none. It is the mirror image of
// cold-export.

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fcache"
	"repro/internal/ga"
)

// warmInterval is the reduced interval length the cache is filled at.
const warmInterval = 2000

// warmConfig is op's configuration (op < 0: the set-up's).
func warmConfig(o *options, dir string, op int) core.Config {
	cfg := core.DefaultConfig()
	cfg.IntervalLength = warmInterval
	if o.smoke {
		cfg = core.TestConfig()
		cfg.IntervalLength = 1000
	}
	cfg.Seed = deriveSeed(o.seed, 1<<20)
	cfg.CacheDir = dir
	if op >= 0 {
		cfg.KMeans.Seed = deriveSeed(o.seed, 2<<20+uint64(op))
		cfg.GA.Seed = deriveSeed(o.seed, 3<<20+uint64(op))
	}
	return cfg
}

type warmState struct {
	reg *bench.Registry
	dir string
}

func runWarmReanalyze(o *options) (*outcome, error) {
	cleanup, err := runScratch(o)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	setups := 3
	if o.trace || o.smoke {
		setups = 1
	}
	hc := newHostClock()
	st, setup, err := repeatSetup(hc, setups, func() (*warmState, error) { return warmSetup(o) }, func(s *warmState) { os.RemoveAll(s.dir) })
	if err != nil {
		return nil, err
	}
	if o.trace {
		return warmTraced(o, st)
	}

	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	mt := startMeter()
	var ops []opSummary
	var w tally
	for w.wall < o.seconds || len(ops) < 2 {
		cfg := warmConfig(o, st.dir, len(ops))
		var res *core.Result
		var sel ga.Selection
		var buf []byte
		var err error
		tm := hc.time(func() { res, sel, buf, err = reanalyze(st.reg, cfg) })
		w.add(tm, 1)
		w.primary(tm.wall, "")
		op := summarize(st.reg, cfg, res, buf, err)
		op.selected = sel.Selected
		ops = append(ops, op)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	mt.report(o.log, w.ops, w.wall)
	out := &outcome{attempted: len(ops)}
	for i, op := range ops {
		if err := checkWarm(o, i, op); err != nil {
			fmt.Fprintf(o.log, "check failed: warm-reanalyze op %d: %v\n", i, err)
			out.failed++
		}
	}
	out.metrics, out.raw = e2e(hc, setup, &w, rss)
	return out, nil
}

// warmSetup fills a fresh vector cache with the sample's intervals.
func warmSetup(o *options) (*warmState, error) {
	reg, err := bench.StandardRegistry()
	if err != nil {
		return nil, err
	}
	dir, err := tempDir(o, "warm-cache-*")
	if err != nil {
		return nil, err
	}
	cfg := warmConfig(o, dir, -1)
	cfg.MemoBudget = -1 // the ops must read the cache, not an in-process copy
	if _, err := core.Characterize(core.SampleRefs(reg, cfg), cfg); err != nil {
		return nil, err
	}
	return &warmState{reg: reg, dir: dir}, nil
}

// reanalyze is the untraced op: run, select key characteristics, export.
func reanalyze(reg *bench.Registry, cfg core.Config) (*core.Result, ga.Selection, []byte, error) {
	res, err := core.Run(reg, cfg, nil)
	if err != nil {
		return nil, ga.Selection{}, nil, err
	}
	sel, err := res.SelectKeyCharacteristics(cfg.KeyCharacteristics)
	if err != nil {
		return nil, sel, nil, err
	}
	var buf bytes.Buffer
	err = res.WriteJSON(&buf)
	return res, sel, buf.Bytes(), err
}

// checkWarm verifies one re-analysis: every interval came from the
// cache (no silent regeneration), a full key-characteristic selection,
// and a resumed rerun exports identical bytes.
func checkWarm(o *options, i int, op opSummary) error {
	if op.err != nil {
		return op.err
	}
	want := op.unique
	if o.plant && i == 0 {
		want++ // planted wrong expectation
	}
	if op.hits != want {
		return fmt.Errorf("cache hits %d, want %d", op.hits, want)
	}
	if len(op.selected) != op.cfg.KeyCharacteristics {
		return fmt.Errorf("selected %d key characteristics, want %d", len(op.selected), op.cfg.KeyCharacteristics)
	}
	cfg := op.cfg
	cfg.Resume = true
	return checkRerun(op.reg, cfg, op.json)
}

// warmTraced replays each op with spans, then runs the untraced op as
// the reference the replay must match.
func warmTraced(o *options, st *warmState) (*outcome, error) {
	t := newTracer()
	cache, err := fcache.Open(st.dir)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	var counts layerCounts
	var wall, refTimes []float64
	window := 0.0
	// Each traced op is followed by its reference op, so half of -seconds
	// of traced ops keeps the run near the untraced one's length.
	for op := 0; window < o.seconds/2 || op < 2; op++ {
		cfg := warmConfig(o, st.dir, op)
		out.attempted++
		t0 := time.Now()
		root := t.begin("op", op, -1, 1)
		res, n, rerr := replayRun(t, op, root, st.reg, cfg, cache)
		var sel ga.Selection
		var buf bytes.Buffer
		if rerr == nil {
			s := t.begin("ga.select", op, root, 1)
			sel, rerr = res.SelectKeyCharacteristics(cfg.KeyCharacteristics)
			t.end(s)
			n.evaluations = sel.Evaluations
		}
		if rerr == nil {
			s := t.begin("core.export", op, root, 1)
			rerr = res.WriteJSON(&buf)
			t.end(s)
		}
		t.end(root)
		d := seconds(time.Since(t0))
		window += d
		wall = append(wall, d)
		if rerr != nil {
			fmt.Fprintf(o.log, "check failed: traced warm-reanalyze op %d: %v\n", op, rerr)
			out.failed++
			continue
		}
		counts.add(n)

		r0 := time.Now()
		want, wantSel, wantJSON, err := reanalyze(st.reg, cfg)
		refTimes = append(refTimes, seconds(time.Since(r0)))
		if err == nil {
			err = sameResult(res, want, buf.Bytes(), wantJSON)
		}
		if err == nil && fmt.Sprint(sel.Selected) != fmt.Sprint(wantSel.Selected) {
			err = fmt.Errorf("replay key-characteristic selection differs")
		}
		if err == nil {
			ref := summarize(st.reg, cfg, want, wantJSON, nil)
			ref.selected = wantSel.Selected
			err = checkWarm(o, op, ref)
		}
		if err != nil {
			fmt.Fprintf(o.log, "check failed: traced warm-reanalyze op %d: %v\n", op, err)
			out.failed++
		}
	}
	m := layerMetrics(t, counts, 0, 0)
	m["traced.ops_per_s"] = metric{float64(len(wall)) / sum(wall), "1/s"}
	m["untraced.ops_per_s"] = metric{float64(len(refTimes)) / sum(refTimes), "1/s"}
	finishTrace(o, t, m)
	out.metrics = m
	return out, nil
}
