package serve

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
)

// JobSpec is the JSON body of POST /jobs: the analysis-shaping knobs of
// the phasechar CLI, by the same names and with the same semantics, so a
// job submitted over HTTP selects exactly the run the equivalent
// one-shot command would — that equivalence is what the loopback gate
// pins byte-for-byte.
type JobSpec struct {
	// Preset mirrors the CLI's parameter presets: "" (defaults),
	// "quick" (-quick) or "paper-scale" (-paper-scale).
	Preset string `json:"preset,omitempty"`
	// Suites is the -suites comma-separated roster filter (empty: all).
	Suites string `json:"suites,omitempty"`
	// Seed is the pipeline seed. The field omits zero, so a submitted
	// job with seed 0 runs the CLI default, 1.
	Seed int64 `json:"seed,omitempty"`
	// Interval / Samples / Clusters / Prominent / Key override the
	// preset the way the -interval / -samples / -clusters / -prominent /
	// -key flags do (0: keep the preset's value).
	Interval  int `json:"interval,omitempty"`
	Samples   int `json:"samples,omitempty"`
	Clusters  int `json:"clusters,omitempty"`
	Prominent int `json:"prominent,omitempty"`
	Key       int `json:"key,omitempty"`
	// Workers is the compute parallelism for this job's stages (0:
	// GOMAXPROCS). Results are worker-count independent.
	Workers int `json:"workers,omitempty"`
	// Incremental is ignored: a job whose roster extends the service
	// cache's latest baseline characterizes only the added benchmarks
	// either way.
	//
	// Deprecated: kept only so the benchmark module (perfbench), which
	// sets it, builds unchanged.
	Incremental bool `json:"incremental,omitempty"`
	// Models is an optional inline workload-model file (the -models
	// payload): its suites replace same-named built-in suites and append
	// otherwise, before Suites filters the roster. Capped at
	// bench.MaxModelBytes and fully validated at submit time — a bad
	// model is a 400, never a failed job.
	Models json.RawMessage `json:"models,omitempty"`
}

// Build materializes the spec into the registry and config of the run
// it names: the preset ladder, the overrides and the roster assembly
// (built-in suites, then models, then the Suites filter). It is the one
// spec-to-config mapping — phasechar builds its local runs through it
// too — so a job and the equivalent one-shot command run the same
// pipeline. models is the spec's workload-model file already decoded
// (nil: none); Build does not read the raw Models field. The cache
// directory and metrics sink are the caller's to fill in afterwards.
func (sp JobSpec) Build(models *bench.ModelFile) (*bench.Registry, core.Config, error) {
	cfg := core.DefaultConfig()
	switch sp.Preset {
	case "":
	case "paper-scale":
		cfg.IntervalLength = 100000
		cfg.SamplesPerBenchmark = 150
		cfg.MaxIntervalsPerBenchmark = 160
	case "quick":
		cfg = core.TestConfig()
		cfg.IntervalLength = 5000
		cfg.SamplesPerBenchmark = 20
		cfg.MaxIntervalsPerBenchmark = 40
		cfg.NumClusters = 150
		cfg.NumProminent = 50
	default:
		return nil, cfg, fmt.Errorf("serve: unknown preset %q (want \"\", \"quick\" or \"paper-scale\")", sp.Preset)
	}
	if sp.Interval > 0 {
		cfg.IntervalLength = sp.Interval
	}
	if sp.Samples > 0 {
		cfg.SamplesPerBenchmark = sp.Samples
	}
	if sp.Clusters > 0 {
		cfg.NumClusters = sp.Clusters
	}
	if sp.Prominent > 0 {
		cfg.NumProminent = sp.Prominent
	}
	if sp.Key > 0 {
		cfg.KeyCharacteristics = sp.Key
	}
	cfg.Seed = sp.Seed
	cfg.Workers = sp.Workers

	reg, err := bench.StandardRegistry()
	if err != nil {
		return nil, cfg, err
	}
	if models != nil {
		if reg, err = reg.WithModels(models); err != nil {
			return nil, cfg, err
		}
	}
	if sp.Suites != "" {
		if reg, err = reg.FilterSuites(sp.Suites); err != nil {
			return nil, cfg, err
		}
	}
	cfg.Registry = reg
	return reg, cfg, nil
}

// build is Build over the decoded inline models: the service's view of
// a submitted spec, whose zero seed is the CLI default.
func (sp JobSpec) build() (*bench.Registry, core.Config, error) {
	var models *bench.ModelFile
	if len(sp.Models) > 0 {
		var err error
		if models, err = bench.DecodeModels(sp.Models); err != nil {
			return nil, core.Config{}, err
		}
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	return sp.Build(models)
}

// State is a job's lifecycle position. queued and running are live;
// done, failed and cancelled are terminal — a job reaches exactly one
// terminal state and never leaves it.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Status is a job's externally visible snapshot, as served by
// GET /jobs/{id} and streamed by /events.
type Status struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	State  State  `json:"state"`
	// Error carries the failure cause in state "failed".
	Error string `json:"error,omitempty"`
	// Submitted/Started/Finished are RFC3339Nano wall-clock marks; the
	// zero ones are omitted.
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`
}

// job is one submitted analysis run.
type job struct {
	id     string
	tenant string
	spec   JobSpec
	// reg and cfg are the run submit built from spec, kept so the job
	// is built once; both are dropped when the job ends. Only the worker
	// that started the job reads them.
	reg *bench.Registry
	cfg core.Config

	mu        sync.Mutex
	state     State
	errText   string
	result    []byte // exported run JSON, set in StateDone
	submitted time.Time
	started   time.Time
	finished  time.Time
	// changed is closed and replaced on every state transition, so
	// watchers (the /events stream, result ?wait) block without polling.
	changed chan struct{}
}

func newJob(id, tenant string, spec JobSpec, reg *bench.Registry, cfg core.Config) *job {
	return &job{
		id: id, tenant: tenant, spec: spec, reg: reg, cfg: cfg,
		state:     StateQueued,
		submitted: time.Now(),
		changed:   make(chan struct{}),
	}
}

// status returns the job's snapshot plus the channel that signals its
// next transition — take both under one lock so a watcher can never
// miss the transition between reading the state and starting to wait.
func (j *job) status() (Status, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID: j.id, Tenant: j.tenant, State: j.state, Error: j.errText,
		Submitted: j.submitted, Started: j.started, Finished: j.finished,
	}, j.changed
}

// signalLocked wakes every watcher. Caller holds j.mu.
func (j *job) signalLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// start moves queued → running. It refuses (false) if the job left the
// queue another way — a cancel that won the race.
func (j *job) start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.signalLocked()
	return true
}

// finish lands the job in a terminal state with its result or error
// and reports whether it did. A job that is already terminal is left
// untouched (false): terminal states are write-once, so a failure path
// racing a cancel cannot flap the state.
func (j *job) finish(state State, result []byte, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = state
	j.result = result
	if err != nil {
		j.errText = err.Error()
	}
	j.endLocked()
	return true
}

// endLocked stamps the terminal transition, drops the built run and
// wakes every watcher. Caller holds j.mu.
func (j *job) endLocked() {
	j.reg, j.cfg = nil, core.Config{}
	j.finished = time.Now()
	j.signalLocked()
}

// cancelQueued moves queued → cancelled; a running or finished job is
// not cancellable (the analysis has no safe preemption points) and
// returns false.
func (j *job) cancelQueued() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateCancelled
	j.endLocked()
	return true
}

// payload returns the result bytes; valid only in StateDone.
func (j *job) payload() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}
