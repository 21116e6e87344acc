// Package serve is the characterization service: a long-lived HTTP
// front door that accepts analysis jobs as JSON, runs them through the
// core pipeline against a shared artifact cache, and streams status and
// results back. One process serves many tenants; what makes that safe
// and fast is layered below this package — admission control and
// per-tenant quotas here, per-key singleflight in fcache, stage
// artifacts and the incremental delta path in core. A job's result is
// byte-identical to the one-shot CLI export for the same spec: the
// service changes where the pipeline runs, never what it computes.
//
// Endpoints:
//
//	POST /jobs               submit a JobSpec; 202 + {"id": ...}, or 429
//	                         (+ Retry-After) when the queue or the
//	                         tenant's token bucket is full
//	GET  /jobs/{id}          the job's Status snapshot
//	GET  /jobs/{id}/result   the result JSON; ?wait=1 blocks until done
//	GET  /jobs/{id}/events   server-sent events: one Status per change
//	POST /jobs/{id}/cancel   cancel a still-queued job
//	POST /corpus/query       phase-corpus similarity/uniqueness queries
//	                         (404 unless the service has a corpus dir)
//	GET  /healthz            liveness
//	GET  /metrics            the live obs run report (queue depth,
//	                         admission rejects, cache traffic,
//	                         per-endpoint latency histograms)
//
// The service remembers the maxEndedJobs most recently ended jobs; the
// ID of an older one answers 404 on every /jobs endpoint, like an
// unknown ID, so clients fetch a result when its job ends.
package serve

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/obs"
)

// maxEndedJobs bounds how many ended (done, failed or cancelled) jobs
// the service remembers. When one more job ends, the oldest ended job is
// forgotten and its ID answers 404 like an unknown one, so the job table
// of a long-lived service stops growing; queued and running jobs are
// never forgotten. Every client in the repo fetches a result as soon as
// its job ends.
const maxEndedJobs = 256

// Config shapes one service instance.
type Config struct {
	// CacheDir is the shared fcache directory every job runs against.
	// Required: the service's whole point is reusing work across jobs.
	CacheDir string
	// QueueDepth bounds how many jobs may wait beyond the ones running;
	// a submission past the bound is rejected with 429 (0: default 16).
	QueueDepth int
	// Workers is how many jobs run concurrently (0: default 2).
	Workers int
	// HotBytes is ignored: repeat artifact reads go to the entry files,
	// which the OS page cache serves from memory while they are warm,
	// so there is no in-memory tier to size.
	//
	// Deprecated: kept only so the benchmark module (perfbench), which
	// sets it, builds unchanged.
	HotBytes int64
	// QuotaPerSec / QuotaBurst configure the per-tenant token buckets:
	// QuotaBurst submissions up front, refilled at QuotaPerSec. A
	// QuotaBurst of 0 disables quotas.
	QuotaPerSec float64
	QuotaBurst  float64
	// Metrics receives the service counters and latency histograms and
	// backs /metrics. Nil disables instrumentation (and /metrics).
	Metrics *obs.Metrics
	// Logf receives job-level logging. Nil disables it.
	Logf func(string, ...any)
	// CorpusDir, when set, opens the phase corpus at that directory and
	// serves POST /corpus/query from it. Empty: the endpoint is 404.
	CorpusDir string
	// IngestJobs, with CorpusDir set, ingests every completed job's
	// result into the corpus (idempotently — a job equivalent to one
	// already ingested adds nothing), so tenants' submitted workloads
	// accumulate into the database their later queries run against.
	IngestJobs bool

	// execute, when non-nil, replaces the pipeline execution — the
	// concurrency tests' way to get arbitrarily slow, failing or
	// panicking jobs without running the real pipeline. Unexported:
	// only in-package tests can reach it.
	execute func(spec JobSpec) ([]byte, error)
}

// Server is one running characterization service.
type Server struct {
	cfg    Config
	m      *obs.Metrics
	quotas *quotaTable
	queue  chan *job
	corpus *corpus.Corpus

	mu     sync.Mutex
	jobs   map[string]*job
	ended  []string // IDs of the ended jobs in jobs, oldest first
	nextID int64

	workers  sync.WaitGroup
	stop     chan struct{}
	stopOnce sync.Once

	depth        *obs.Counter
	admRejects   *obs.Counter
	quotaRejects *obs.Counter
	submitted    *obs.Counter
	jobsDone     *obs.Counter
	jobsFailed   *obs.Counter
	jobsCancel   *obs.Counter
	jobRuntime   *obs.Histogram
}

// New builds the service and starts its worker pool. Callers must Close
// it (Serve does so on the way out).
func New(cfg Config) (*Server, error) {
	if cfg.CacheDir == "" {
		return nil, fmt.Errorf("serve: a cache directory is required (jobs share artifacts through it)")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.IngestJobs && cfg.CorpusDir == "" {
		return nil, fmt.Errorf("serve: IngestJobs needs a corpus directory")
	}
	var corp *corpus.Corpus
	if cfg.CorpusDir != "" {
		var err error
		if corp, err = corpus.Open(cfg.CorpusDir, cfg.Metrics); err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:    cfg,
		m:      cfg.Metrics,
		corpus: corp,
		quotas: newQuotaTable(cfg.QuotaPerSec, cfg.QuotaBurst),
		queue:  make(chan *job, cfg.QueueDepth),
		jobs:   make(map[string]*job),
		stop:   make(chan struct{}),

		depth:        cfg.Metrics.Counter("serve.queue_depth"),
		admRejects:   cfg.Metrics.Counter("serve.admission_rejects"),
		quotaRejects: cfg.Metrics.Counter("serve.quota_rejects"),
		submitted:    cfg.Metrics.Counter("serve.jobs_submitted"),
		jobsDone:     cfg.Metrics.Counter("serve.jobs_done"),
		jobsFailed:   cfg.Metrics.Counter("serve.jobs_failed"),
		jobsCancel:   cfg.Metrics.Counter("serve.jobs_cancelled"),
		jobRuntime:   cfg.Metrics.Histogram("serve.job_runtime"),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.workerLoop()
	}
	return s, nil
}

// Close stops the worker pool: queued jobs stop being picked up, and
// Close returns once the jobs already running have finished. Idempotent.
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.workers.Wait()
}

// logf forwards to the configured logger.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// submit validates, admits and enqueues a job. The error carries an
// HTTP status via submitError.
func (s *Server) submit(tenant string, spec JobSpec) (*job, error) {
	// Build up front: a spec that cannot build must 400 at submission,
	// not park in the queue to fail minutes later, and the job runs what
	// was built here.
	reg, cfg, err := spec.build()
	if err != nil {
		return nil, &submitError{status: http.StatusBadRequest, err: err}
	}
	if ok, retry := s.quotas.admit(tenant, time.Now()); !ok {
		s.quotaRejects.Inc()
		return nil, &submitError{status: http.StatusTooManyRequests, retryAfter: retry,
			err: fmt.Errorf("serve: tenant %q is over its submission quota", tenant)}
	}

	s.mu.Lock()
	s.nextID++
	j := newJob(fmt.Sprintf("j%08d", s.nextID), tenant, spec, reg, cfg)
	s.jobs[j.id] = j
	s.mu.Unlock()

	select {
	case s.queue <- j:
		s.depth.Inc()
		s.submitted.Inc()
		s.logf("serve: %s accepted job %s (suites=%q preset=%q)", tenant, j.id, spec.Suites, spec.Preset)
		return j, nil
	default:
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.mu.Unlock()
		s.admRejects.Inc()
		return nil, &submitError{status: http.StatusTooManyRequests, retryAfter: time.Second,
			err: fmt.Errorf("serve: job queue is full (%d waiting)", cap(s.queue))}
	}
}

// submitError is a submission refusal with its HTTP representation.
type submitError struct {
	status     int
	retryAfter time.Duration
	err        error
}

func (e *submitError) Error() string { return e.err.Error() }

// lookup finds a job by ID.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// retire records that j has ended, forgetting the oldest ended job once
// more than maxEndedJobs are remembered.
func (s *Server) retire(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ended = append(s.ended, j.id)
	if len(s.ended) > maxEndedJobs {
		delete(s.jobs, s.ended[0])
		s.ended = s.ended[1:]
	}
}

// end lands j in a terminal state and retires it, unless it had already
// ended.
func (s *Server) end(j *job, state State, result []byte, err error) {
	if j.finish(state, result, err) {
		s.retire(j)
	}
}

// workerLoop pulls queued jobs until the server closes.
func (s *Server) workerLoop() {
	defer s.workers.Done()
	for {
		select {
		case <-s.stop:
			return
		case j := <-s.queue:
			s.depth.Add(-1)
			s.runJob(j)
		}
	}
}

// runJob executes one job start to terminal state. Every exit lands the
// job in done, failed or cancelled — a panic inside the pipeline
// becomes a failed job with the panic text, never a job wedged in
// "running" with a dead worker under it.
func (s *Server) runJob(j *job) {
	if !j.start() {
		// A cancel won the race while the job was queued.
		return
	}
	defer func() {
		if r := recover(); r != nil {
			s.end(j, StateFailed, nil, fmt.Errorf("serve: job panicked: %v", r))
			s.jobsFailed.Inc()
			s.logf("serve: job %s panicked: %v", j.id, r)
		}
	}()
	t0 := time.Now()
	payload, err := s.executeJob(j)
	if err != nil {
		s.end(j, StateFailed, nil, err)
		s.jobsFailed.Inc()
		s.logf("serve: job %s failed: %v", j.id, err)
		return
	}
	s.end(j, StateDone, payload, nil)
	s.jobsDone.Inc()
	s.jobRuntime.Observe(time.Since(t0))
	s.logf("serve: job %s done in %v (%d result bytes)", j.id, time.Since(t0).Round(time.Millisecond), len(payload))
}

// executeJob runs a started job's built run through the pipeline and
// exports its JSON.
func (s *Server) executeJob(j *job) ([]byte, error) {
	if s.cfg.execute != nil {
		return s.cfg.execute(j.spec)
	}
	// The service fills in what the spec must not control: every job
	// shares the service cache (so stage artifacts of earlier identical
	// jobs answer repeat queries), and reports into the service
	// collector.
	cfg := j.cfg
	cfg.CacheDir = s.cfg.CacheDir
	cfg.Metrics = s.m
	res, err := core.Run(j.reg, cfg, nil)
	if err != nil {
		return nil, err
	}
	// Opt-in accumulation: the finished run's phases join the corpus.
	// The job already succeeded — its payload is what the tenant asked
	// for — so an ingest failure is logged, never propagated.
	if s.corpus != nil && s.cfg.IngestJobs {
		if info, ierr := s.corpus.IngestResult(res); ierr != nil {
			s.logf("serve: corpus ingest failed: %v", ierr)
		} else if !info.Skipped {
			s.logf("serve: corpus ingest: +%d records (%d intervals, %d centroids) in %s",
				info.Records, info.Intervals, info.Centroids, info.Segment)
		}
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Serve binds addr, reports the bound address through ready (may be
// nil), and serves the front door until ctx is cancelled or the
// listener fails (obs.ListenAndDrain). Cancellation shuts down
// gracefully — in-flight requests drain, then the worker pool finishes
// the jobs it is running — and returns nil; a listener failure returns
// its error so the caller can exit nonzero. Either way the worker pool
// is closed before Serve returns.
func (s *Server) Serve(ctx context.Context, addr string, ready func(net.Addr)) error {
	err := obs.ListenAndDrain(ctx, addr, s.Handler(), ready)
	if ctx.Err() != nil {
		s.logf("serve: requests drained, finishing running jobs")
	}
	s.Close()
	return err
}
