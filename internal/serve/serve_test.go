package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// testServer builds a service with the given config defaults filled in,
// wraps it in an httptest front door, and tears both down with the test.
func testServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.CacheDir == "" {
		cfg.CacheDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, &Client{Base: ts.URL, Tenant: "test"}
}

// awaitState polls a job until it reaches want (or the deadline).
func awaitState(t *testing.T, c *Client, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s is %q, want %q", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAdmissionAtCapacity pins the backpressure contract: with one
// worker busy and the queue full, the next submission is 429 with a
// Retry-After, counted as an admission reject — and the queue recovers
// once the running job finishes.
func TestAdmissionAtCapacity(t *testing.T) {
	release := make(chan struct{})
	m := obs.New()
	s, c := testServer(t, Config{
		QueueDepth: 1, Workers: 1, Metrics: m,
		execute: func(JobSpec) ([]byte, error) {
			<-release
			return []byte("{}"), nil
		},
	})

	running, err := c.Submit(JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	awaitState(t, c, running.ID, StateRunning) // worker is now occupied
	queued, err := c.Submit(JobSpec{})
	if err != nil {
		t.Fatal(err)
	}

	// Queue slot taken, worker busy: the third submission must bounce.
	_, err = c.Submit(JobSpec{})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 429 {
		t.Fatalf("over-capacity submit: err = %v, want HTTP 429", err)
	}
	if se.RetryAfter < 1 {
		t.Fatalf("429 without a usable Retry-After (%d)", se.RetryAfter)
	}
	if got := m.Counter("serve.admission_rejects").Value(); got != 1 {
		t.Fatalf("serve.admission_rejects = %d, want 1", got)
	}
	if got := m.Counter("serve.queue_depth").Value(); got != 1 {
		t.Fatalf("serve.queue_depth = %d, want 1", got)
	}

	close(release)
	awaitState(t, c, running.ID, StateDone)
	awaitState(t, c, queued.ID, StateDone)
	if got := m.Counter("serve.queue_depth").Value(); got != 0 {
		t.Fatalf("queue_depth = %d after drain, want 0", got)
	}

	// Capacity is back: a new submission is admitted again.
	relaunched, err := c.Submit(JobSpec{})
	if err != nil {
		t.Fatalf("post-drain submit refused: %v", err)
	}
	awaitState(t, c, relaunched.ID, StateDone)
	_ = s
}

// TestQuotaExhaustion pins per-tenant isolation: a tenant that burns
// its burst is 429'd while another tenant sails through.
func TestQuotaExhaustion(t *testing.T) {
	m := obs.New()
	_, c := testServer(t, Config{
		QueueDepth: 16, Workers: 1, Metrics: m,
		QuotaBurst: 2, QuotaPerSec: 0.0001, // effectively no refill in-test
		execute: func(JobSpec) ([]byte, error) { return []byte("{}"), nil },
	})

	for i := 0; i < 2; i++ {
		if _, err := c.Submit(JobSpec{}); err != nil {
			t.Fatalf("submit %d inside burst refused: %v", i, err)
		}
	}
	_, err := c.Submit(JobSpec{})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 429 {
		t.Fatalf("over-quota submit: err = %v, want HTTP 429", err)
	}
	if se.RetryAfter < 1 {
		t.Fatalf("quota 429 without Retry-After (%d)", se.RetryAfter)
	}
	if got := m.Counter("serve.quota_rejects").Value(); got != 1 {
		t.Fatalf("serve.quota_rejects = %d, want 1", got)
	}

	other := &Client{Base: c.Base, Tenant: "other-tenant"}
	if _, err := other.Submit(JobSpec{}); err != nil {
		t.Fatalf("an exhausted tenant must not starve another: %v", err)
	}
}

// TestCancelQueuedJob: a queued job cancels cleanly (and its worker
// never runs it); a running one refuses with 409.
func TestCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	ran := make(chan string, 16)
	m := obs.New()
	_, c := testServer(t, Config{
		QueueDepth: 4, Workers: 1, Metrics: m,
		execute: func(spec JobSpec) ([]byte, error) {
			ran <- spec.Suites
			<-release
			return []byte("{}"), nil
		},
	})

	running, err := c.Submit(JobSpec{Suites: ""})
	if err != nil {
		t.Fatal(err)
	}
	awaitState(t, c, running.ID, StateRunning)
	queued, err := c.Submit(JobSpec{})
	if err != nil {
		t.Fatal(err)
	}

	st, err := c.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("cancelled job state = %q", st.State)
	}
	if _, err := c.Result(queued.ID, false); err == nil {
		t.Fatal("result of a cancelled job should error")
	}
	if _, err := c.Cancel(running.ID); err == nil {
		t.Fatal("cancelling a running job should refuse")
	}
	if got := m.Counter("serve.jobs_cancelled").Value(); got != 1 {
		t.Fatalf("serve.jobs_cancelled = %d, want 1", got)
	}

	close(release)
	awaitState(t, c, running.ID, StateDone)
	// The cancelled job must never have reached the executor.
	close(ran)
	count := 0
	for range ran {
		count++
	}
	if count != 1 {
		t.Fatalf("executor ran %d jobs, want 1 (the cancelled one must be skipped)", count)
	}
}

// TestFailurePaths pins the failure contract: a job whose pipeline
// errors or panics lands in terminal "failed" with the cause — never
// wedged in "running" — and the result endpoint surfaces it as 500.
func TestFailurePaths(t *testing.T) {
	m := obs.New()
	_, c := testServer(t, Config{
		Workers: 1, Metrics: m,
		execute: func(spec JobSpec) ([]byte, error) {
			if spec.Seed == 666 {
				panic("stage blew up")
			}
			return nil, fmt.Errorf("mid-stage failure: disk on fire")
		},
	})

	// Plain error: terminal failed with the error string.
	st, err := c.Submit(JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	final := awaitState(t, c, st.ID, StateFailed)
	if !strings.Contains(final.Error, "disk on fire") {
		t.Fatalf("failed job error = %q", final.Error)
	}
	_, err = c.Result(st.ID, true)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 500 || !strings.Contains(se.Body, "disk on fire") {
		t.Fatalf("result of failed job: %v, want 500 with the cause", err)
	}

	// Panic: recovered into terminal failed, worker survives.
	st2, err := c.Submit(JobSpec{Seed: 666})
	if err != nil {
		t.Fatal(err)
	}
	final2 := awaitState(t, c, st2.ID, StateFailed)
	if !strings.Contains(final2.Error, "stage blew up") {
		t.Fatalf("panicked job error = %q", final2.Error)
	}
	if got := m.Counter("serve.jobs_failed").Value(); got != 2 {
		t.Fatalf("serve.jobs_failed = %d, want 2", got)
	}

	// The worker pool survived both: a well-behaved job still runs.
	// (Its executor fails by construction here, so just check it is
	// picked up and terminates.)
	st3, err := c.Submit(JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	awaitState(t, c, st3.ID, StateFailed)
}

// TestSubmitValidation: a spec that cannot build is refused at POST
// time with 400, not parked to fail later.
func TestSubmitValidation(t *testing.T) {
	_, c := testServer(t, Config{
		execute: func(JobSpec) ([]byte, error) { return []byte("{}"), nil },
	})
	for _, spec := range []JobSpec{
		{Preset: "warp-speed"},
		{Suites: "NoSuchSuite"},
	} {
		_, err := c.Submit(spec)
		var se *StatusError
		if !errors.As(err, &se) || se.Code != 400 {
			t.Fatalf("submit %+v: err = %v, want HTTP 400", spec, err)
		}
	}
	if _, err := c.Status("j99999999"); err == nil {
		t.Fatal("unknown job id should 404")
	}
}

// TestEventsStream follows a job's SSE stream through queued → running
// → done and checks the stream closes after the terminal event.
func TestEventsStream(t *testing.T) {
	release := make(chan struct{})
	_, c := testServer(t, Config{
		Workers: 1,
		execute: func(JobSpec) ([]byte, error) {
			<-release
			return []byte("{}"), nil
		},
	})
	st, err := c.Submit(JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	var states []State
	firstEvent := make(chan struct{}, 1)
	done := make(chan error, 1)
	go func() {
		_, err := c.Events(st.ID, func(s Status) {
			states = append(states, s.State)
			select {
			case firstEvent <- struct{}{}:
			default:
			}
		})
		done <- err
	}()
	// The job is pinned on release, so the stream is guaranteed a
	// non-terminal event — but only once it has actually connected.
	select {
	case <-firstEvent:
	case <-time.After(10 * time.Second):
		t.Fatal("event stream produced nothing")
	}
	awaitState(t, c, st.ID, StateRunning)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(states) < 2 {
		t.Fatalf("stream saw %d events, want >= 2 (got %v)", len(states), states)
	}
	if last := states[len(states)-1]; last != StateDone {
		t.Fatalf("stream ended on %q, want %q", last, StateDone)
	}
	for _, s := range states[:len(states)-1] {
		if s.Terminal() {
			t.Fatalf("terminal state %q before the end of the stream (%v)", s, states)
		}
	}
}

// TestServeGracefulShutdown: cancelling the service context returns nil
// (clean exit) and leaves no request hanging; a dead listener address
// errors instead.
func TestServeGracefulShutdown(t *testing.T) {
	s, err := New(Config{CacheDir: t.TempDir(),
		execute: func(JobSpec) ([]byte, error) { return []byte("{}"), nil }})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan net.Addr, 1)
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- s.Serve(ctx, "127.0.0.1:0", func(a net.Addr) { addrCh <- a })
	}()
	select {
	case <-addrCh:
	case err := <-serveErr:
		t.Fatalf("Serve exited before ready: %v", err)
	}
	cancel()
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}

	s2, err := New(Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Serve(context.Background(), "256.0.0.1:bogus", nil); err == nil {
		t.Fatal("bogus address should fail to bind")
	}
}

// TestEndedJobsBounded drives more jobs than maxEndedJobs through the
// service and requires the job table to stop growing at the bound: the
// oldest ended job is forgotten (404, like an unknown ID) while a job
// still running is kept however many others end around it.
func TestEndedJobsBounded(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	s, c := testServer(t, Config{
		QueueDepth: 1, Workers: 2,
		execute: func(spec JobSpec) ([]byte, error) {
			if spec.Seed == 2 {
				<-release
			}
			return []byte("{}"), nil
		},
	})
	// Registered after the server's Close, so it runs first: a failing
	// test still lets the blocked job finish and Close return.
	t.Cleanup(unblock)
	tableSize := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.jobs)
	}

	long, err := c.Submit(JobSpec{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	awaitState(t, c, long.ID, StateRunning)
	var first string
	for i := 0; i < maxEndedJobs+5; i++ {
		st, err := c.Submit(JobSpec{})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if i == 0 {
			first = st.ID
		}
		if _, err := c.Result(st.ID, true); err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
	}
	if got := tableSize(); got != maxEndedJobs+1 {
		t.Fatalf("job table holds %d jobs, want %d ended + 1 running", got, maxEndedJobs)
	}
	var se *StatusError
	if _, err := c.Status(first); !errors.As(err, &se) || se.Code != 404 {
		t.Fatalf("oldest ended job %s: err = %v, want HTTP 404", first, err)
	}
	awaitState(t, c, long.ID, StateRunning)

	unblock()
	awaitState(t, c, long.ID, StateDone)
	if got := tableSize(); got != maxEndedJobs {
		t.Fatalf("job table holds %d jobs after the last one ended, want %d", got, maxEndedJobs)
	}
}
