package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/obs"
)

// seedCorpus fills dir with a small two-suite corpus and returns a
// direct handle to it — the "CLI side" of the byte-identity checks.
func seedCorpus(t *testing.T, dir string) *corpus.Corpus {
	t.Helper()
	c, err := corpus.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := corpus.Batch{Dataset: 0xD1, Params: 0xE2, Seed: 3}
	for bench := 0; bench < 3; bench++ {
		suite := "SuiteA"
		if bench == 2 {
			suite = "SuiteB"
		}
		for i := 0; i < 4; i++ {
			v := float64(bench*10 + i)
			b.Entries = append(b.Entries, corpus.Entry{
				Bench: fmt.Sprintf("%s/b%d", suite, bench), Suite: suite,
				Kind: corpus.KindInterval, Index: i,
				Vector: []float64{v, v * 0.5, 3 - v, v * v * 0.01},
			})
		}
	}
	if _, err := c.IngestBatch(b); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCorpusQueryDisabled: a service started without -corpus has no
// corpus resource — 404 with a clear JSON error body, not a 500.
func TestCorpusQueryDisabled(t *testing.T) {
	_, c := testServer(t, Config{
		execute: func(JobSpec) ([]byte, error) { return []byte("{}"), nil },
	})
	_, err := c.CorpusQuery(corpus.QueryRequest{Op: "stats"})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("corpus query on corpus-less service: err = %v, want HTTP 404", err)
	}
	var ce corpusError
	if jerr := json.Unmarshal([]byte(se.Body), &ce); jerr != nil || !strings.Contains(ce.Error, "-corpus") {
		t.Fatalf("404 body = %q, want a JSON error pointing at -corpus", se.Body)
	}
}

// TestCorpusQueryBadRequests: malformed bodies, unknown ops and
// oversized payloads are the client's fault — 400/413 with a JSON
// reason, never a 500 — while a corpus that cannot answer (a flipped
// byte in a segment) is the service's: 500 with the same JSON body.
func TestCorpusQueryBadRequests(t *testing.T) {
	dir := t.TempDir()
	seedCorpus(t, dir)
	_, c := testServer(t, Config{
		CorpusDir: dir,
		execute:   func(JobSpec) ([]byte, error) { return []byte("{}"), nil },
	})
	corruptDir := t.TempDir()
	seedCorpus(t, corruptDir)
	segs, err := filepath.Glob(filepath.Join(corruptDir, "seg-*"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("seeded corpus segments = %v (%v), want one", segs, err)
	}
	buf, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 1
	if err := os.WriteFile(segs[0], buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, corrupt := testServer(t, Config{
		CorpusDir: corruptDir,
		execute:   func(JobSpec) ([]byte, error) { return []byte("{}"), nil },
	})

	post := func(c *Client, body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(c.url("/corpus/query"), "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}

	for name, tc := range map[string]struct {
		c    *Client
		body []byte
		want int
		// names, when set, must appear in the error, which must then
		// carry the "corpus:" prefix exactly once.
		names string
	}{
		"malformed json": {c, []byte(`{"op": "near`), http.StatusBadRequest, ""},
		"unknown op":     {c, []byte(`{"op":"frobnicate"}`), http.StatusBadRequest, ""},
		"bad ref":        {c, []byte(`{"op":"nearest","ref":"not-a-ref"}`), http.StatusBadRequest, ""},
		"oversized":      {c, bytes.Repeat([]byte("x"), maxQueryBytes+1), http.StatusRequestEntityTooLarge, ""},
		"flipped byte":   {corrupt, []byte(`{"op":"stats"}`), http.StatusInternalServerError, filepath.Base(segs[0])},
	} {
		code, body := post(tc.c, tc.body)
		if code != tc.want {
			t.Fatalf("%s: HTTP %d (%s), want %d", name, code, body, tc.want)
		}
		var ce corpusError
		if err := json.Unmarshal([]byte(body), &ce); err != nil || ce.Error == "" {
			t.Fatalf("%s: body %q is not a JSON corpus error", name, body)
		}
		if tc.names != "" && (!strings.Contains(ce.Error, tc.names) || strings.Count(ce.Error, "corpus:") != 1) {
			t.Fatalf("%s: error %q should name %s and say \"corpus:\" once", name, ce.Error, tc.names)
		}
	}

	// And the method is pinned: GET has no corpus route.
	resp, err := http.Get(c.url("/corpus/query"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed && resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /corpus/query = HTTP %d, want it refused", resp.StatusCode)
	}
}

// TestCorpusQueryMatchesCLI: the service answer is byte-identical to
// what `phasechar query` prints for the same question — both ends
// marshal the same corpus.QueryResponse with the same encoder — and
// /metrics reports the corpus lock's waits.
func TestCorpusQueryMatchesCLI(t *testing.T) {
	dir := t.TempDir()
	direct := seedCorpus(t, dir)
	_, c := testServer(t, Config{
		CorpusDir: dir,
		Metrics:   obs.New(),
		execute:   func(JobSpec) ([]byte, error) { return []byte("{}"), nil },
	})

	for _, q := range []corpus.QueryRequest{
		{Op: "stats"},
		{Op: "nearest", Ref: "SuiteA/b0#1", K: 4},
		{Op: "nearest", Vector: []float64{5, 2.5, -2, 0.25}, K: 3},
		{Op: "uniqueness", Bench: "SuiteB/b2", Radius: 2},
		{Op: "novelty", Suite: "SuiteA"},
	} {
		resp, err := direct.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		var cli bytes.Buffer
		if err := corpus.WriteResponse(&cli, resp); err != nil {
			t.Fatal(err)
		}
		served, err := c.CorpusQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cli.Bytes(), served) {
			t.Fatalf("query %+v: service bytes differ from CLI bytes:\n%s\nvs\n%s", q, served, cli.Bytes())
		}
	}

	raw, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	// Open, then one lock per query.
	if got := rep.Histograms["corpus.lock_wait"].Count; got != 6 {
		t.Fatalf("/metrics corpus.lock_wait count = %d, want 6", got)
	}
}

// TestIngestOnJobCompletion: with -corpus-ingest, a completed job's
// phases land in the corpus, and an equivalent job (even at a different
// worker count) adds nothing — the ledger keys on the dataset hash.
func TestIngestOnJobCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real pipeline")
	}
	dir := t.TempDir()
	_, c := testServer(t, Config{CorpusDir: dir, IngestJobs: true, Workers: 2})

	corpusStats := func() corpus.Stats {
		t.Helper()
		body, err := c.CorpusQuery(corpus.QueryRequest{Op: "stats"})
		if err != nil {
			t.Fatal(err)
		}
		var resp struct {
			Stats corpus.Stats `json:"stats"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Stats
	}

	spec := JobSpec{Suites: "BioPerf", Interval: 2000, Samples: 8, Clusters: 20, Prominent: 10}
	st, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	awaitState(t, c, st.ID, StateDone)
	after := corpusStats()
	if after.Ingests != 1 || after.Records == 0 {
		t.Fatalf("corpus stats after first job = %+v, want one real ingest", after)
	}

	// The same characterization at another worker count is the same
	// dataset: ingest is skipped, the corpus does not grow.
	again := spec
	again.Workers = 2
	st2, err := c.Submit(again)
	if err != nil {
		t.Fatal(err)
	}
	awaitState(t, c, st2.ID, StateDone)
	if got := corpusStats(); got != after {
		t.Fatalf("corpus grew on an equivalent job: %+v -> %+v", after, got)
	}
}

// TestIngestAppendJobs: with -corpus-ingest, a job that extends the
// service's cached baseline is ingested like any other. A cold six-suite
// job and a full-roster append each add their dataset, and resubmitting
// the append adds nothing. The jobs still set the ignored Incremental
// field, as older clients do.
func TestIngestAppendJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real pipeline")
	}
	m := obs.New()
	_, c := testServer(t, Config{CorpusDir: t.TempDir(), IngestJobs: true, Workers: 1, Metrics: m})
	ingests := func() int {
		t.Helper()
		body, err := c.CorpusQuery(corpus.QueryRequest{Op: "stats"})
		if err != nil {
			t.Fatal(err)
		}
		var resp struct {
			Stats corpus.Stats `json:"stats"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Stats.Ingests
	}
	run := func(spec JobSpec) {
		t.Helper()
		st, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Result(st.ID, true); err != nil {
			t.Fatal(err)
		}
	}

	six := JobSpec{Preset: "quick", Suites: "BioPerf,BMW,MediaBenchII,SPECint2000,SPECfp2000,SPECint2006",
		Interval: 2000, Samples: 8, Clusters: 20, Prominent: 10, Incremental: true}
	full := six
	full.Suites = ""
	run(six)
	if got := ingests(); got != 1 {
		t.Fatalf("%d ingests after the six-suite job, want 1", got)
	}
	run(full)
	if got := ingests(); got != 2 {
		t.Fatalf("%d ingests after the append job, want 2", got)
	}
	if got := m.Counter("engine.delta.characterize").Value(); got != 1 {
		t.Fatalf("engine.delta.characterize = %d, want 1 (the append job)", got)
	}
	run(full)
	if got := ingests(); got != 2 {
		t.Fatalf("%d ingests after resubmitting the append, want 2", got)
	}
}

// TestEventsOrderingUnderConcurrentCompletion: with several jobs
// finishing at once, every SSE stream individually stays in order —
// states never move backwards, the terminal event arrives exactly once
// and closes the stream.
func TestEventsOrderingUnderConcurrentCompletion(t *testing.T) {
	const jobs = 6
	release := make(chan struct{})
	_, c := testServer(t, Config{
		Workers: 4,
		execute: func(JobSpec) ([]byte, error) {
			<-release
			return []byte("{}"), nil
		},
	})

	ids := make([]string, jobs)
	for i := range ids {
		st, err := c.Submit(JobSpec{})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}

	rank := map[State]int{StateQueued: 0, StateRunning: 1, StateDone: 2, StateFailed: 2, StateCancelled: 2}
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			var states []State
			last, err := c.Events(id, func(s Status) { states = append(states, s.State) })
			if err != nil {
				errs <- fmt.Errorf("job %s: events: %w", id, err)
				return
			}
			if !last.State.Terminal() {
				errs <- fmt.Errorf("job %s: stream ended on non-terminal %q", id, last.State)
				return
			}
			terminals := 0
			for i, s := range states {
				if _, ok := rank[s]; !ok {
					errs <- fmt.Errorf("job %s: unknown state %q", id, s)
					return
				}
				if i > 0 && rank[s] < rank[states[i-1]] {
					errs <- fmt.Errorf("job %s: state went backwards: %v", id, states)
					return
				}
				if s.Terminal() {
					terminals++
				}
			}
			if terminals != 1 {
				errs <- fmt.Errorf("job %s: %d terminal events in %v, want exactly 1", id, terminals, states)
			}
		}(id)
	}

	// Release every worker at once: completions race the streams.
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
