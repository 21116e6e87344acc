package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// loadSpec is the job the load harness drives: the quick preset over
// one suite, small enough to run many times in a test.
func loadSpec() JobSpec {
	return JobSpec{Preset: "quick", Suites: "BioPerf", Clusters: 8, Prominent: 5, Seed: 1}
}

// oneShotExport computes the spec's result the way the one-shot CLI
// would — no cache, no service, fresh process state — giving the
// reference bytes every service answer must match.
func oneShotExport(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	reg, cfg, err := spec.build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(reg, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadConcurrentTenants is the service's load harness and its
// load-bearing invariant in one: N tenants submit concurrently (cold
// cache, then a warm repeat each), and
//
//   - every result is byte-identical to the one-shot CLI export,
//   - each of the spec's stages is computed once, and every other job
//     resumes it from the cached artifact,
//   - the per-endpoint latency histograms come out with monotone
//     p50 <= p95 <= p99 <= max and the right observation counts.
func TestLoadConcurrentTenants(t *testing.T) {
	if testing.Short() {
		t.Skip("load harness runs the real pipeline")
	}
	want := oneShotExport(t, loadSpec())

	m := obs.New()
	_, c := testServer(t, Config{
		QueueDepth: 32,
		Workers:    4,
		Metrics:    m,
	})

	const tenants = 4
	const rounds = 2 // round 0 cold, round 1 warm
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make([]error, tenants)
		for i := 0; i < tenants; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				tc := &Client{Base: c.Base, Tenant: fmt.Sprintf("tenant-%d", i)}
				st, err := tc.Submit(loadSpec())
				if err != nil {
					errs[i] = fmt.Errorf("submit: %w", err)
					return
				}
				got, err := tc.Result(st.ID, true)
				if err != nil {
					errs[i] = fmt.Errorf("result: %w", err)
					return
				}
				if !bytes.Equal(got, want) {
					errs[i] = fmt.Errorf("round %d: result differs from one-shot export (%d vs %d bytes)", round, len(got), len(want))
				}
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("tenant %d: %v", i, err)
			}
		}
	}

	var rep obs.Report
	raw, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("bad /metrics JSON: %v", err)
	}
	if got := rep.Counters["serve.jobs_done"]; got != tenants*rounds {
		t.Fatalf("serve.jobs_done = %d, want %d", got, tenants*rounds)
	}
	if rep.Counters["serve.jobs_failed"] != 0 {
		t.Fatalf("serve.jobs_failed = %d", rep.Counters["serve.jobs_failed"])
	}
	// Identical jobs share artifacts: the first job computes each of the
	// five stages once (concurrent cold jobs wait for it under the
	// cache's singleflight), and every other job's stages resume from
	// the cached artifacts.
	const stages = 5
	if got := rep.Counters["engine.stages_computed"]; got != stages {
		t.Fatalf("engine.stages_computed = %d, want %d", got, stages)
	}
	if got, want := rep.Counters["engine.stages_resumed"], int64(stages*(tenants*rounds-1)); got != want {
		t.Fatalf("engine.stages_resumed = %d, want %d", got, want)
	}

	for _, name := range []string{"serve.http.post_jobs", "serve.job_runtime"} {
		h, ok := rep.Histograms[name]
		if !ok {
			t.Fatalf("histogram %q missing from /metrics (have %v)", name, keysOf(rep.Histograms))
		}
		if name == "serve.job_runtime" && h.Count != tenants*rounds {
			t.Fatalf("%s count = %d, want %d", name, h.Count, tenants*rounds)
		}
		if h.Count <= 0 {
			t.Fatalf("%s has no observations", name)
		}
		if !(h.P50Seconds <= h.P95Seconds && h.P95Seconds <= h.P99Seconds && h.P99Seconds <= h.MaxSeconds+1e-12) {
			t.Fatalf("%s percentiles not monotone: p50=%g p95=%g p99=%g max=%g",
				name, h.P50Seconds, h.P95Seconds, h.P99Seconds, h.MaxSeconds)
		}
		if h.MaxSeconds <= 0 {
			t.Fatalf("%s max = %g, want > 0", name, h.MaxSeconds)
		}
	}
}

func keysOf(m map[string]obs.HistogramStats) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestServiceMatchesIncrementalAppend drives the append path through the
// front door: a baseline job over a sub-roster, then a job over a larger
// one, which extends the baseline and is byte-identical to its one-shot
// equivalent.
func TestServiceMatchesIncrementalAppend(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real pipeline")
	}
	base := JobSpec{Preset: "quick", Suites: "BioPerf", Clusters: 8, Prominent: 5}
	grown := JobSpec{Preset: "quick", Suites: "BioPerf,BMW", Clusters: 8, Prominent: 5}
	// The reference is the cache-less one-shot export of the grown
	// roster: the delta path changes where the work happens, never the
	// bytes.
	wantGrown := oneShotExport(t, grown)

	m := obs.New()
	_, c := testServer(t, Config{Workers: 1, Metrics: m})

	st, err := c.Submit(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Result(st.ID, true); err != nil {
		t.Fatalf("baseline job: %v", err)
	}
	st, err = c.Submit(grown)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Result(st.ID, true)
	if err != nil {
		t.Fatalf("append job: %v", err)
	}
	if !bytes.Equal(got, wantGrown) {
		t.Fatalf("incremental append via service differs from one-shot export (%d vs %d bytes)", len(got), len(wantGrown))
	}
	var rep obs.Report
	raw, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if got := rep.Counters["engine.delta.characterize"]; got != 1 {
		t.Fatalf("engine.delta.characterize = %d, want 1 (the append job)", got)
	}
}
