package main

// The traced service-mix run: pass 0 runs untraced (its throughput is
// the untraced ops_per_s), pass 1 traces every request. A request's span
// is its client round trip; its children come from what the service
// reports and from in-process replays of the same work, run after the
// request and outside its span:
//
//   - a query replays through an in-process corpus.Corpus.Query of the
//     same request; the rest of the round trip is HTTP overhead;
//   - a job's queue wait and run time come from GET /jobs/{id}; a hot
//     job's export is replayed through Result.WriteJSON; an append's
//     stages are the service collector's spans inside its run window
//     (appends run alone), and its characterize stage is split by a
//     replay of the appended benchmark's intervals (replayCharacterize).

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fcache"
)

// svcTracer collects one traced pass.
type svcTracer struct {
	t     *tracer
	local *corpus.Corpus
	pass  int
	dir   string

	mu        sync.Mutex
	nextOp    int
	lat       map[string][]float64
	overhead  []float64 // query round trip minus in-process query, ms
	queueWait []float64 // ms
	jobRun    []float64 // ms
	scanRows  int
	counts    layerCounts
	generated []core.IntervalRef
}

// serviceStages maps the service collector's stage spans to layers.
var serviceStages = map[string]string{
	"characterize.delta": "core.characterize",
	"merge":              "core.merge",
	"pca":                "stats.pca",
	"scores":             "stats.scores",
	"kmeans":             "cluster.kmeans",
	"prominent":          "core.prominent",
}

func serviceTraced(o *options, st *svcState, hc *hostClock) (*outcome, error) {
	var uw, tw tally
	untraced, un, err := st.runPass(o, 0, hc, &uw, nil)
	if err != nil {
		return nil, err
	}
	local, err := corpus.Open(st.corpusDir, nil)
	if err != nil {
		return nil, err
	}
	b0 := time.Now()
	cs, err := local.Stats() // a fresh handle builds its index here
	if err != nil {
		return nil, err
	}
	indexBuild := seconds(time.Since(b0))
	dir, err := tempDir(o, "replay-*")
	if err != nil {
		return nil, err
	}
	tr := &svcTracer{t: newTracer(), local: local, pass: 1, dir: dir, lat: map[string][]float64{}}
	reqs, tn, err := st.runPass(o, 1, hc, &tw, tr)
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: len(untraced) + len(reqs), failed: st.check(o, append(untraced, reqs...), un+tn)}

	ilpS, ppmS, err := subAnalyzerSplit(tr.generated, st.chainInterval(1), 0)
	if err != nil {
		return nil, err
	}
	m := layerMetrics(tr.t, tr.counts, ilpS, ppmS)
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	rep, err := st.metrics()
	if err != nil {
		return nil, err
	}
	cn := rep.Counters
	ops := float64(len(reqs))
	if g := cn["fcache.hits"] + cn["fcache.misses"]; g > 0 {
		set("fcache.gets", float64(g)/ops)
		set("fcache.hit_ratio", float64(cn["fcache.hits"])/float64(g))
	}
	set("fcache.written_mb", float64(cn["fcache.bytes_written"])/ops/(1<<20))
	if h := cn["fcache.hot_hits"] + cn["fcache.hot_misses"]; h > 0 {
		set("fcache.hot_hit_ratio", float64(cn["fcache.hot_hits"])/float64(h))
	}
	set("fcache.hot_mb", float64(cn["fcache.hot_bytes"])/(1<<20))
	appends := float64(un + tn)
	set("core.delta_frozen_ratio", float64(cn["engine.delta.pca"])/appends)
	fallbacks := int64(0)
	for name, v := range cn {
		if strings.HasPrefix(name, "engine.delta_fallback.") {
			fallbacks += v
		}
	}
	set("core.delta_fallbacks", float64(fallbacks)/appends)
	set("corpus.scan_rows", float64(tr.scanRows)/ops)
	set("corpus.index_build_s", indexBuild)
	set("corpus.setup_ingest_s", st.ingestS)
	set("corpus.records", float64(cs.Records))
	set("serve.http_overhead_ms", median(tr.overhead))
	set("serve.queue_wait_ms", mean(tr.queueWait))
	set("serve.job_run_ms", mean(tr.jobRun))
	set("serve.rejects", float64(cn["serve.admission_rejects"]+cn["serve.quota_rejects"]))
	set("serve.query_p99_ms", 1000*quantile(tr.lat["query"], 0.99))
	set("serve.hot_job_p50_ms", 1000*median(tr.lat["hot"]))
	set("serve.append_job_p50_ms", 1000*median(tr.lat["append"]))
	set("obs.spans_retained", float64(len(rep.Spans)))
	set("traced.ops_per_s", float64(tw.ops)/tw.wall)
	set("untraced.ops_per_s", float64(uw.ops)/uw.wall)
	finishTrace(o, tr.t, m)
	out.metrics = m
	return out, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// trace records one finished request's spans and replays.
func (tr *svcTracer) trace(st *svcState, c int, class, id string, q *corpus.QueryRequest, t0, t1 time.Time, appended *bench.Benchmark) error {
	t := tr.t
	tr.mu.Lock()
	op := tr.nextOp
	tr.nextOp++
	tr.lat[class] = append(tr.lat[class], t1.Sub(t0).Seconds())
	tr.mu.Unlock()
	s, e := t.at(t0), t.at(t1)
	root := t.add("op", op, -1, s, e, 1)
	clip := func(x float64) float64 { return min(max(x, s), e) }

	if q != nil {
		q0 := time.Now()
		resp, err := tr.local.Query(*q)
		d := seconds(time.Since(q0))
		if err != nil {
			return err
		}
		mid := clip(s + d)
		t.add("corpus.query", op, root, s, mid, 1)
		t.add("serve.http", op, root, mid, e, 1)
		tr.mu.Lock()
		tr.scanRows += resp.Scanned
		tr.overhead = append(tr.overhead, 1000*(t1.Sub(t0).Seconds()-d))
		tr.mu.Unlock()
		return nil
	}

	stat, err := st.clients[c].Status(id)
	if err != nil {
		return err
	}
	sub, start, fin := clip(t.at(stat.Submitted)), clip(t.at(stat.Started)), clip(t.at(stat.Finished))
	t.add("serve.http", op, root, s, sub, 1)
	t.add("serve.queue_wait", op, root, sub, start, 1)
	job := t.add("serve.job_run", op, root, start, fin, 1)
	t.add("serve.http", op, root, fin, e, 1)
	tr.mu.Lock()
	tr.queueWait = append(tr.queueWait, 1000*stat.Started.Sub(stat.Submitted).Seconds())
	tr.jobRun = append(tr.jobRun, 1000*stat.Finished.Sub(stat.Started).Seconds())
	tr.mu.Unlock()

	if class == "hot" {
		var buf bytes.Buffer
		e0 := time.Now()
		err := st.hotRes.WriteJSON(&buf)
		d := seconds(time.Since(e0))
		if err != nil {
			return err
		}
		t.add("core.export", op, job, max(start, fin-d), fin, 1)
		return nil
	}
	return tr.traceAppend(st, op, job, start, fin, appended)
}

// traceAppend attaches the service's stage spans of one append (it ran
// alone, so every span inside its run window is its own) and splits its
// characterize stage by replaying the appended benchmark's intervals.
func (tr *svcTracer) traceAppend(st *svcState, op, job int, start, fin float64, appended *bench.Benchmark) error {
	t := tr.t
	rep := st.m.Snapshot()
	base := t.at(st.mStart)
	const slack = 1e-3
	var char []int
	for _, sp := range rep.Spans {
		lo := base + sp.StartSeconds
		hi := lo + sp.WallSeconds
		name, ok := serviceStages[sp.Stage]
		// The delta path's inner "characterize" span (the new rows only)
		// nests inside "characterize.delta"; the replay splits the outer.
		if !ok || lo < start-slack || hi > fin+slack || sp.Resumed || sp.Stage == "characterize" {
			continue
		}
		id := t.add(name, op, job, max(lo, start), min(hi, fin), 1)
		if name == "core.characterize" {
			char = append(char, id)
		}
	}
	cfg := quickConfig()
	if st.sz.samples > 0 {
		cfg.SamplesPerBenchmark, cfg.NumClusters, cfg.NumProminent = st.sz.samples, st.sz.clusters, st.sz.prominent
	}
	cfg.IntervalLength = st.chainInterval(tr.pass)
	cfg.Seed = st.chainSeed
	var refs []core.IntervalRef
	for _, r := range core.SampleRefs(st.full, cfg) {
		if r.Bench == appended {
			refs = append(refs, r)
		}
	}
	dir, err := os.MkdirTemp(tr.dir, "cache-*")
	if err != nil {
		return err
	}
	cache, err := fcache.Open(dir)
	if err != nil {
		return err
	}
	scratch := newTracer()
	root := scratch.begin("op", 0, -1, 1)
	_, n, err := replayCharacterize(scratch, 0, root, refs, cfg, cache)
	scratch.end(root)
	if err != nil {
		return err
	}
	tr.mu.Lock()
	tr.counts.add(n)
	tr.generated = append(tr.generated, n.generated...)
	tr.mu.Unlock()
	if len(char) != 1 {
		return fmt.Errorf("append of %s: %d delta characterize spans in its run window, want 1", appended.ID(), len(char))
	}
	// Lay the replayed layer self times end to end inside the service's
	// characterize span, clipped to it.
	a := scratch.attribute()
	t.mu.Lock()
	c := t.spans[char[0]]
	t.mu.Unlock()
	names := make([]string, 0, len(a.self))
	for name := range a.self {
		names = append(names, name)
	}
	sort.Strings(names)
	at := c.Start
	for _, name := range names {
		end := min(at+a.self[name], c.End)
		if end > at {
			t.add(name, op, char[0], at, end, 1)
		}
		at = end
	}
	return nil
}
