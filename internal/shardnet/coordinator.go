package shardnet

// Coordinator side of the shard service. Distribute assigns the run's
// shards across the configured workers (shard i starts on worker i%W,
// each worker handling one request at a time), retries transient
// failures with capped exponential backoff plus seeded jitter, and on a
// worker's final failure reassigns its pending shards to the survivors —
// or, when no workers remain, abandons them to local computation. Every
// accepted shard artifact is verified (frame checksum, schema version,
// dataset fingerprint, interval coverage) before its rows are stored as
// ordinary interval vectors, so the plain core.Run that follows reads
// exactly what a single-process run would have computed. The invariant:
// for any worker count and any fault schedule, the result is
// byte-identical to a local run. Retry timing (the jitter Seed) can
// change how long a run takes, never its bytes.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

const (
	defaultTimeout     = 30 * time.Second
	defaultBackoffBase = 50 * time.Millisecond
	defaultBackoffCap  = 2 * time.Second
	// maxResponseBytes bounds /shard response frames read into memory.
	maxResponseBytes = 1 << 30
)

// Coordinator distributes shard computations across HTTP workers.
type Coordinator struct {
	// Workers are the worker base URLs ("http://host:port", as
	// cliobs.ParseWorkers normalizes them).
	Workers []string
	// Timeout is the per-request deadline (0 = 30s).
	Timeout time.Duration
	// Retries is how many extra attempts each worker gets per shard
	// before it is declared dead (negative = 0).
	Retries int
	// BackoffBase / BackoffCap shape the exponential retry backoff
	// (0 = 50ms / 2s). Each retry waits base<<(attempt-1), capped, with
	// ±50% seeded jitter.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Seed drives the backoff jitter only; it never affects result bytes.
	Seed int64
	// Transport overrides the HTTP transport (nil =
	// http.DefaultTransport). Tests and the CLI wrap it with *Faults.
	Transport http.RoundTripper
	// Metrics receives the rpc.* counters and the rpc.distribute span.
	Metrics *obs.Metrics
	// Logf receives per-event logging. Nil disables it.
	Logf func(string, ...any)

	// shards is how many shards the characterization is split into
	// (0 = one per worker, the only split phasechar runs). The tests set
	// it to split finer than one shard per worker.
	shards int
}

// DistributeStats summarizes one Distribute call.
type DistributeStats struct {
	// Shards is the total shard count of the run.
	Shards int
	// Remote / Local split the shards into worker-computed and
	// abandoned-to-local-computation.
	Remote, Local int
	// Retries counts same-worker re-attempts; Reassigned counts shards
	// moved from a dead worker to the survivor pool.
	Retries, Reassigned int
	// Timeouts counts attempts that hit the per-request deadline.
	Timeouts int
	// DeadWorkers is how many workers were declared dead.
	DeadWorkers int
	// Bytes is the total response frame bytes read.
	Bytes int64
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

func (c *Coordinator) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return defaultTimeout
}

func (c *Coordinator) retries() int {
	if c.Retries > 0 {
		return c.Retries
	}
	return 0
}

func (c *Coordinator) backoff(attempt int) time.Duration {
	base, cap := c.BackoffBase, c.BackoffCap
	if base <= 0 {
		base = defaultBackoffBase
	}
	if cap <= 0 {
		cap = defaultBackoffCap
	}
	d := base << (attempt - 1)
	if d > cap || d <= 0 {
		d = cap
	}
	return d
}

// permanentError marks a failure no retry can fix (version or dataset
// divergence); the worker is declared dead without further attempts.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// dispatcher is the shared scheduling state: per-worker queues, the
// orphan pool fed by dead workers, and completion accounting.
type dispatcher struct {
	mu          sync.Mutex
	cond        *sync.Cond
	queues      [][]int
	orphans     []int
	alive       []bool
	aliveCount  int
	outstanding int
	stats       DistributeStats
}

// next blocks until worker w has a shard to run, every shard is
// settled, or w is dead. ok reports whether a shard was claimed.
func (d *dispatcher) next(w int) (shard int, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if !d.alive[w] || d.outstanding == 0 {
			return 0, false
		}
		if q := d.queues[w]; len(q) > 0 {
			d.queues[w] = q[1:]
			return q[0], true
		}
		if len(d.orphans) > 0 {
			shard = d.orphans[0]
			d.orphans = d.orphans[1:]
			return shard, true
		}
		d.cond.Wait()
	}
}

// done settles one shard as worker-computed.
func (d *dispatcher) done(bytes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.Remote++
	d.stats.Bytes += bytes
	d.outstanding--
	if d.outstanding == 0 {
		d.cond.Broadcast()
	}
}

// addStat mutates the in-flight stats under the dispatcher lock.
func (d *dispatcher) addStat(f func(*DistributeStats)) {
	d.mu.Lock()
	f(&d.stats)
	d.mu.Unlock()
}

// kill declares worker w dead while it holds shard. The shard and w's
// remaining queue move to the orphan pool when survivors exist;
// otherwise every unsettled shard is abandoned to local computation.
// Returns how many shards were reassigned and how many abandoned.
func (d *dispatcher) kill(w, shard int) (reassigned, abandoned int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.alive[w] = false
	d.aliveCount--
	d.stats.DeadWorkers++
	pending := append([]int{shard}, d.queues[w]...)
	d.queues[w] = nil
	if d.aliveCount > 0 {
		d.orphans = append(d.orphans, pending...)
		sort.Ints(d.orphans)
		reassigned = len(pending)
		d.stats.Reassigned += reassigned
	} else {
		pending = append(pending, d.orphans...)
		d.orphans = nil
		abandoned = len(pending)
		d.stats.Local += abandoned
		d.outstanding -= abandoned
	}
	d.cond.Broadcast()
	return reassigned, abandoned
}

// Distribute computes the shards of (reg, cfg) on the workers and
// stores every verified artifact's rows in cfg.CacheDir as interval
// vectors. It returns once all shards are settled — computed remotely
// or left for the run to characterize locally. A fully successful run
// leaves Local == 0; a run that lost every worker leaves Local ==
// Shards. Either way the caller proceeds with core.Run unchanged.
func (c *Coordinator) Distribute(reg *bench.Registry, cfg core.Config) (*DistributeStats, error) {
	if len(c.Workers) == 0 {
		return nil, fmt.Errorf("shardnet: no workers configured")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.CacheDir == "" {
		return nil, fmt.Errorf("shardnet: distributing shards needs a cache directory")
	}
	n := c.shards
	if n <= 0 {
		n = len(c.Workers)
	}
	hash, err := core.DatasetHash(reg, cfg)
	if err != nil {
		return nil, err
	}

	span := c.Metrics.StartSpan("rpc.distribute").SetRows(n).SetWorkers(len(c.Workers))
	d := &dispatcher{
		queues:      make([][]int, len(c.Workers)),
		alive:       make([]bool, len(c.Workers)),
		aliveCount:  len(c.Workers),
		outstanding: n,
	}
	d.cond = sync.NewCond(&d.mu)
	d.stats.Shards = n
	for s := 0; s < n; s++ {
		w := s % len(c.Workers)
		d.queues[w] = append(d.queues[w], s)
	}
	for i := range c.Workers {
		d.alive[i] = true
	}

	client := &http.Client{Transport: c.Transport}
	var wg sync.WaitGroup
	for w := range c.Workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Jitter RNG is per worker so backoff sequences are independent
			// of scheduling across workers.
			rng := trace.NewRNG(uint64(c.Seed) ^ trace.Hash64(uint64(w)))
			for {
				shard, ok := d.next(w)
				if !ok {
					return
				}
				nbytes, err := c.fetchShard(client, c.Workers[w], reg, cfg, shard, n, hash, rng, d)
				if err == nil {
					d.done(nbytes)
					continue
				}
				c.logf("shardnet: worker %d (%s) failed shard %d/%d: %v", w, c.Workers[w], shard, n, err)
				reassigned, abandoned := d.kill(w, shard)
				c.Metrics.Counter("rpc.reassigned").Add(int64(reassigned))
				if abandoned > 0 {
					c.logf("shardnet: no workers left, computing %d shard(s) locally", abandoned)
				}
				return
			}
		}(w)
	}
	wg.Wait()

	d.mu.Lock()
	stats := d.stats
	d.mu.Unlock()
	span.SetBytes(stats.Bytes).End()
	c.logf("shardnet: distributed %d/%d shard(s) across %d worker(s) (%d dead, %d reassigned, %d retries)",
		stats.Remote, stats.Shards, len(c.Workers), stats.DeadWorkers, stats.Reassigned, stats.Retries)
	return &stats, nil
}

// fetchShard runs the full attempt loop for one shard against one
// worker: request, verify, store. A nil error means the artifact is in
// the cache (the int64 is the accepted frame's size); any error means
// the worker is spent for this run.
func (c *Coordinator) fetchShard(client *http.Client, workerURL string, reg *bench.Registry, cfg core.Config, shard, count int, hash uint64, rng *trace.RNG, d *dispatcher) (int64, error) {
	req := NewShardRequest(cfg, shard, count, hash)
	frame, err := req.MarshalBinary()
	if err != nil {
		return 0, err
	}

	attempts := c.retries() + 1
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.Metrics.Counter("rpc.retries").Add(1)
			d.addStat(func(s *DistributeStats) { s.Retries++ })
			wait := c.backoff(attempt)
			// ±50% jitter: deterministic per (seed, worker, attempt), and
			// irrelevant to result bytes by construction.
			wait = wait/2 + time.Duration(rng.Uint64n(uint64(wait)))
			time.Sleep(wait)
		}
		nbytes, err := c.tryShard(client, workerURL, frame, reg, cfg, &req)
		if err == nil {
			return nbytes, nil
		}
		lastErr = err
		if errors.Is(err, context.DeadlineExceeded) {
			c.Metrics.Counter("rpc.timeouts").Add(1)
			d.addStat(func(s *DistributeStats) { s.Timeouts++ })
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return 0, err
		}
	}
	return 0, lastErr
}

// tryShard performs one request/verify/store attempt.
func (c *Coordinator) tryShard(client *http.Client, workerURL string, frame []byte, reg *bench.Registry, cfg core.Config, want *ShardRequest) (int64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout())
	defer cancel()
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, workerURL+"/shard", bytes.NewReader(frame))
	if err != nil {
		return 0, err
	}
	httpReq.Header.Set("Content-Type", "application/octet-stream")
	c.Metrics.Counter("rpc.sent").Add(1)
	resp, err := client.Do(httpReq)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusConflict {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, &permanentError{fmt.Errorf("worker refused shard: %s", strings.TrimSpace(string(msg)))}
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("worker returned %s", resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return 0, err
	}
	nbytes := int64(len(body))
	c.Metrics.Counter("rpc.bytes").Add(nbytes)
	var sr ShardResponse
	if err := sr.UnmarshalBinary(body); err != nil {
		return nbytes, err
	}
	if sr.ArtifactVersion != want.ArtifactVersion || sr.DatasetHash != want.DatasetHash {
		return nbytes, &permanentError{fmt.Errorf(
			"response for artifact %#x dataset %#x, want %#x/%#x", sr.ArtifactVersion, sr.DatasetHash, want.ArtifactVersion, want.DatasetHash)}
	}
	if sr.Index != want.Index || sr.Count != want.Count {
		return nbytes, fmt.Errorf("response for shard %d/%d, want %d/%d", sr.Index, sr.Count, want.Index, want.Count)
	}
	if _, err := core.PutShardArtifact(reg, cfg, want.Index, want.Count, sr.Payload); err != nil {
		return nbytes, err
	}
	return nbytes, nil
}
