package main

// service-mix: an in-process serve.Server on loopback HTTP (2 job
// workers, a 256 MiB hot tier) over a corpus ingested in set-up from the
// quick standard roster plus models/bigdata.json. Two clients drive it
// closed-loop (each waits for every reply) in rounds. A round starts with
// one incremental append job from the study owner, alone: the chain
// starts from every suite except SPEC CPU2006 and appends SPEC CPU2006's
// 29 benchmarks, then BigData's 6, one per round, at its own interval
// length so each append characterizes its new benchmark fresh. Then 100
// reads split over both clients: 90 corpus nearest/uniqueness/novelty
// queries and 10 hot repeats of a set-up job. Rounds fix each query's
// corpus and cache state, so the work does not depend on scheduling.
// A run makes -seconds/10 passes of 35 rounds, each pass on a fresh
// baseline built outside the timed window.
//
// IngestJobs stays off: core.DatasetHash rejects incremental configs, so
// the service would drop every append's ingest with a log line, and
// fixing that would change what the queries scan.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fcache"
	"repro/internal/obs"
	"repro/internal/serve"
)

const (
	svcClients  = 2
	svcWorkers  = 2
	svcHotBytes = 256 << 20
)

// svcSize is the workload's scale.
type svcSize struct {
	reads, hot    int // reads per round, of which hot jobs
	chainInterval int // interval length of pass 0's chain
	appendSuites  []string
	// overrides applied to every job in smoke runs
	interval, samples, clusters, prominent int
}

func serviceSize(o *options) svcSize {
	sz := svcSize{reads: 100, hot: 10, chainInterval: 4000,
		appendSuites: []string{"SPECint2006", "SPECfp2006", "BigData"}}
	if o.smoke {
		sz = svcSize{reads: 10, hot: 1, chainInterval: 800, appendSuites: []string{"BigData"},
			interval: 1000, samples: 4, clusters: 20, prominent: 10}
	}
	return sz
}

// spec applies the smoke overrides to a quick-preset job spec.
func (sz svcSize) spec(sp serve.JobSpec) serve.JobSpec {
	sp.Preset = "quick"
	if sz.interval > 0 && sp.Interval == 0 {
		sp.Interval = sz.interval
	}
	if sz.samples > 0 {
		sp.Samples, sp.Clusters, sp.Prominent = sz.samples, sz.clusters, sz.prominent
	}
	return sp
}

type svcState struct {
	sz      svcSize
	dir     string
	m       *obs.Metrics
	mStart  time.Time
	stop    func()
	clients [svcClients]*serve.Client
	// hot is the set-up job every hot read repeats; hotWant is the
	// set-up's in-process export of the same spec, hotRes its result.
	hot     serve.JobSpec
	hotWant []byte
	hotRes  *core.Result
	// corpusDir and the query draw pools.
	corpusDir string
	refs      []string
	benches   []string
	suites    []string
	ingestS   float64
	// chain is the append roster in order; baseSuites the chain
	// baseline's suites; models maps a suite to its full model.
	chain      []*bench.Benchmark
	chainSeed  int64
	baseSuites []string
	models     map[string]bench.SuiteModel
	full       *bench.Registry
}

// svcReq is one finished request.
type svcReq struct {
	class string // "query", "hot" or "append"
	kind  string // the query op, for queries
	lat   float64
	err   error
	// Sampled queries keep the request and the served bytes for the
	// byte-identity check after the window.
	query *corpus.QueryRequest
	body  []byte
}

func runServiceMix(o *options) (*outcome, error) {
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
	st, setup, err := repeatSetup(hc, setups, func() (*svcState, error) { return serviceSetup(o) }, func(s *svcState) { s.close() })
	if err != nil {
		return nil, err
	}
	defer st.close()
	if o.trace {
		return serviceTraced(o, st, hc)
	}

	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	mt := startMeter()
	var reqs []svcReq
	var w tally
	appends := 0
	for pass := 0; pass < st.passes(o); pass++ {
		rs, n, err := st.runPass(o, pass, hc, &w, nil)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, rs...)
		appends += n
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	mt.report(o.log, w.ops, w.wall)
	out := &outcome{attempted: len(reqs), failed: st.check(o, reqs, appends)}
	out.metrics, out.raw = e2e(hc, setup, &w, rss)
	return out, nil
}

// serviceSetup ingests the corpus, starts the service, warms the hot
// job and builds pass 0's chain baseline.
func serviceSetup(o *options) (*svcState, error) {
	sz := serviceSize(o)
	dir, err := tempDir(o, "service-*")
	if err != nil {
		return nil, err
	}
	st := &svcState{sz: sz, dir: dir, corpusDir: filepath.Join(dir, "corpus"), stop: func() {}}
	fail := func(err error) (*svcState, error) {
		st.close()
		return nil, err
	}
	bigRaw, err := os.ReadFile(modelsPath(o))
	if err != nil {
		return fail(err)
	}
	big, err := bench.DecodeModels(bigRaw)
	if err != nil {
		return fail(err)
	}
	std, err := bench.StandardRegistry()
	if err != nil {
		return fail(err)
	}
	if st.full, err = std.WithModels(big); err != nil {
		return fail(err)
	}
	if err := st.planChain(std, big); err != nil {
		return fail(err)
	}
	st.chainSeed = deriveSeed(o.seed, 4<<20)

	// The corpus: one quick run over the full roster, in-process against
	// the service cache, whose export is also the hot job's expectation.
	cacheDir := filepath.Join(dir, "cache")
	st.hot = sz.spec(serve.JobSpec{Seed: deriveSeed(o.seed, 5<<20), Models: bigRaw})
	cfg := quickConfig()
	if sz.samples > 0 {
		cfg.IntervalLength, cfg.SamplesPerBenchmark, cfg.NumClusters, cfg.NumProminent = sz.interval, sz.samples, sz.clusters, sz.prominent
	}
	cfg.Seed = st.hot.Seed
	cfg.CacheDir = cacheDir
	if st.hotRes, err = core.Run(st.full, cfg, nil); err != nil {
		return fail(err)
	}
	var buf bytes.Buffer
	if err := st.hotRes.WriteJSON(&buf); err != nil {
		return fail(err)
	}
	st.hotWant = buf.Bytes()
	c, err := corpus.Open(st.corpusDir, nil)
	if err != nil {
		return fail(err)
	}
	t0 := time.Now()
	if _, err := c.IngestResult(st.hotRes); err != nil {
		return fail(err)
	}
	st.ingestS = seconds(time.Since(t0))
	seen := map[string]bool{}
	for _, r := range st.hotRes.Dataset.Refs {
		if ref := r.String(); !seen[ref] {
			seen[ref] = true
			st.refs = append(st.refs, ref)
		}
	}
	for _, b := range st.full.All() {
		st.benches = append(st.benches, b.ID())
	}
	for _, s := range st.full.SuiteNames() {
		st.suites = append(st.suites, string(s))
	}

	if err := st.start(cacheDir); err != nil {
		return fail(err)
	}
	body, err := st.job(0, st.hot)
	if err != nil {
		return fail(fmt.Errorf("warming the hot job: %w", err))
	}
	if !bytes.Equal(body, st.hotWant) {
		return fail(fmt.Errorf("service export of the hot job differs from the in-process export"))
	}
	if _, err := st.job(0, st.baseline(0)); err != nil {
		return fail(fmt.Errorf("chain baseline: %w", err))
	}
	return st, nil
}

// planChain fixes the append order and the baseline suites.
func (st *svcState) planChain(std *bench.Registry, big *bench.ModelFile) error {
	raw, err := std.ExportModels()
	if err != nil {
		return err
	}
	stdModels, err := bench.DecodeModels(raw)
	if err != nil {
		return err
	}
	st.models = map[string]bench.SuiteModel{}
	for _, s := range append(stdModels.Suites, big.Suites...) {
		st.models[s.Name] = s
	}
	appended := map[string]bool{}
	for _, s := range st.sz.appendSuites {
		appended[s] = true
		st.chain = append(st.chain, st.full.BySuite(bench.Suite(s))...)
	}
	for _, s := range st.full.SuiteNames() {
		if !appended[string(s)] {
			st.baseSuites = append(st.baseSuites, string(s))
		}
	}
	return nil
}

// passSeconds is the nominal length of one pass on a 2-vCPU host.
const passSeconds = 10

// passes is how many chain passes fill -seconds. The count follows from
// -seconds alone, not from the host's speed, so every run does the same
// work — the service's retained spans, and with them peak RSS, grow
// with the number of jobs served.
func (st *svcState) passes(o *options) int {
	if o.smoke {
		return 1
	}
	return max(1, int(o.seconds/passSeconds+0.5))
}

// chainInterval is pass's chain interval length: each pass appends at a
// length no earlier run used, so its appends characterize fresh.
func (st *svcState) chainInterval(pass int) int {
	return st.sz.chainInterval + pass*st.sz.chainInterval/40
}

// baseline is pass's chain baseline job.
func (st *svcState) baseline(pass int) serve.JobSpec {
	return st.sz.spec(serve.JobSpec{
		Suites: strings.Join(st.baseSuites, ","), Seed: st.chainSeed, Incremental: true,
		Interval: st.chainInterval(pass),
	})
}

// appendSpec is round r's append: the baseline plus the first r+1
// chain benchmarks, partial suites given as inline models.
func (st *svcState) appendSpec(pass, r int) (serve.JobSpec, error) {
	sp := st.baseline(pass)
	have := map[string]map[string]bool{}
	for _, b := range st.chain[:r+1] {
		if have[string(b.Suite)] == nil {
			have[string(b.Suite)] = map[string]bool{}
		}
		have[string(b.Suite)][b.Name] = true
	}
	mf := bench.ModelFile{Version: bench.ModelSchemaVersion}
	suites := append([]string(nil), st.baseSuites...)
	for _, name := range st.sz.appendSuites {
		if have[name] == nil {
			continue
		}
		suites = append(suites, name)
		sm := st.models[name]
		var keep []bench.BenchmarkModel
		for _, bm := range sm.Benchmarks {
			if have[name][bm.Name] {
				keep = append(keep, bm)
			}
		}
		sm.Benchmarks = keep
		mf.Suites = append(mf.Suites, sm)
	}
	var err error
	sp.Suites = strings.Join(suites, ",")
	sp.Models, err = json.Marshal(mf)
	return sp, err
}

// start runs the service on a loopback port.
func (st *svcState) start(cacheDir string) error {
	st.m = obs.New()
	st.mStart = time.Now()
	srv, err := serve.New(serve.Config{
		CacheDir:  cacheDir,
		Workers:   svcWorkers,
		HotBytes:  svcHotBytes,
		Metrics:   st.m,
		CorpusDir: st.corpusDir,
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- srv.Serve(ctx, "127.0.0.1:0", func(a net.Addr) { ready <- a.String() })
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		cancel()
		return fmt.Errorf("service did not start: %v", err)
	}
	st.stop = func() {
		cancel()
		<-done
		fcache.EnableHotTier(cacheDir, 0)
	}
	for i := range st.clients {
		st.clients[i] = &serve.Client{
			Base:   "http://" + addr,
			Tenant: []string{"owner", "reader"}[i],
			HTTP:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		}
	}
	return nil
}

func (st *svcState) close() {
	st.stop()
	st.stop = func() {}
	for _, c := range st.clients {
		if c != nil {
			c.HTTP.CloseIdleConnections()
		}
	}
	os.RemoveAll(st.dir)
}

// job submits spec from client c and waits for its result.
func (st *svcState) job(c int, spec serve.JobSpec) ([]byte, error) {
	s, err := st.clients[c].Submit(spec)
	if err != nil {
		return nil, err
	}
	return st.clients[c].Result(s.ID, true)
}

// read is one drawn read request.
type read struct {
	hot   bool
	query corpus.QueryRequest
}

// draws returns round r of pass's reads: exactly sz.hot hot jobs and the
// rest queries split evenly over the three query ops, with seeded
// arguments, in a seeded order.
func (st *svcState) draws(o *options, pass, r int) []read {
	rng := rand.New(rand.NewSource(deriveSeed(o.seed, 6<<20+uint64(pass)<<10+uint64(r))))
	reads := make([]read, st.sz.reads)
	for i := range reads {
		if i < st.sz.hot {
			reads[i].hot = true
			continue
		}
		switch i % 3 {
		case 0:
			reads[i].query = corpus.QueryRequest{Op: "nearest", Ref: st.refs[rng.Intn(len(st.refs))]}
		case 1:
			reads[i].query = corpus.QueryRequest{Op: "uniqueness", Bench: st.benches[rng.Intn(len(st.benches))]}
		default:
			reads[i].query = corpus.QueryRequest{Op: "novelty", Suite: st.suites[rng.Intn(len(st.suites))]}
		}
	}
	rng.Shuffle(len(reads), func(a, b int) { reads[a], reads[b] = reads[b], reads[a] })
	return reads
}

// runPass runs one chain of rounds, adds them to w and returns their
// requests and the number of appends. Each round is timed (and scaled)
// as one stretch. A pass after the first builds its baseline first,
// outside the timed window. tr, when non-nil, traces every request (see
// serviceTraced).
func (st *svcState) runPass(o *options, pass int, hc *hostClock, w *tally, tr *svcTracer) ([]svcReq, int, error) {
	if pass > 0 {
		if _, err := st.job(0, st.baseline(pass)); err != nil {
			return nil, 0, fmt.Errorf("chain baseline: %w", err)
		}
	}
	var reqs []svcReq
	for r := range st.chain {
		spec, err := st.appendSpec(pass, r)
		if err != nil {
			return nil, 0, err
		}
		reads := st.draws(o, pass, r)
		round := make([]svcReq, 0, 1+len(reads))
		tm := hc.time(func() {
			round = append(round, st.request(0, "append", spec, nil, tr, st.chain[r]))
			var mu sync.Mutex
			var wg sync.WaitGroup
			for c := 0; c < svcClients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					var mine []svcReq
					for i := c; i < len(reads); i += svcClients {
						var q svcReq
						if reads[i].hot {
							q = st.request(c, "hot", st.hot, nil, tr, nil)
						} else {
							q = st.request(c, "query", serve.JobSpec{}, &reads[i].query, tr, nil)
							q.kind = reads[i].query.Op
							if i%10 == 0 {
								q.query = &reads[i].query
							} else {
								q.body = nil
							}
						}
						mine = append(mine, q)
					}
					mu.Lock()
					round = append(round, mine...)
					mu.Unlock()
				}(c)
			}
			wg.Wait()
		})
		w.add(tm, len(round))
		for _, q := range round {
			if q.class == "query" && q.err == nil {
				w.primary(q.lat, q.kind)
			}
		}
		reqs = append(reqs, round...)
	}
	return reqs, len(st.chain), nil
}

// request runs one request from client c and times it.
func (st *svcState) request(c int, class string, spec serve.JobSpec, q *corpus.QueryRequest, tr *svcTracer, appended *bench.Benchmark) svcReq {
	t0 := time.Now()
	var body []byte
	var err error
	var id string
	if q != nil {
		body, err = st.clients[c].CorpusQuery(*q)
	} else {
		var s serve.Status
		if s, err = st.clients[c].Submit(spec); err == nil {
			id = s.ID
			body, err = st.clients[c].Result(id, true)
		}
	}
	t1 := time.Now()
	req := svcReq{class: class, lat: t1.Sub(t0).Seconds(), err: err, body: body}
	if err == nil && class == "hot" {
		req.body = nil
		if !bytes.Equal(body, st.hotWant) {
			req.err = fmt.Errorf("hot job result differs from the set-up's in-process export")
		}
	}
	if tr != nil && req.err == nil {
		req.err = tr.trace(st, c, class, id, q, t0, t1, appended)
	}
	return req
}

// check counts failed requests: transport or job errors, hot results
// that differ from the set-up export (checked as they arrive), sampled
// query answers that differ from in-process corpus.Query +
// corpus.WriteResponse, and appends that did not take the delta path.
func (st *svcState) check(o *options, reqs []svcReq, appends int) int {
	failed := 0
	c, err := corpus.Open(st.corpusDir, nil)
	if err != nil {
		fmt.Fprintf(o.log, "check failed: opening corpus: %v\n", err)
		return len(reqs)
	}
	planted := o.plant
	for _, r := range reqs {
		if r.err == nil && r.class == "hot" && planted {
			planted = false
			r.err = fmt.Errorf("planted wrong expectation")
		}
		if r.err == nil && r.query != nil {
			var want bytes.Buffer
			resp, qerr := c.Query(*r.query)
			if qerr == nil {
				qerr = corpus.WriteResponse(&want, resp)
			}
			if qerr == nil && !bytes.Equal(want.Bytes(), r.body) {
				qerr = fmt.Errorf("%s answer differs from in-process query", r.query.Op)
			}
			r.err = qerr
		}
		if r.err != nil {
			fmt.Fprintf(o.log, "check failed: service-mix %s: %v\n", r.class, r.err)
			failed++
		}
	}
	rep, err := st.metrics()
	if err != nil {
		fmt.Fprintf(o.log, "check failed: /metrics: %v\n", err)
		return failed + appends
	}
	if got := int(rep.Counters["engine.delta.characterize"]); got != appends {
		fmt.Fprintf(o.log, "check failed: %d of %d appends took the delta characterize path\n", got, appends)
		failed += max(1, appends-got)
	}
	return failed
}

// metrics fetches the service's live report over GET /metrics.
func (st *svcState) metrics() (*obs.Report, error) {
	raw, err := st.clients[0].Metrics()
	if err != nil {
		return nil, err
	}
	var rep obs.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}
