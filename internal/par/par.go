// Package par is the shared worker-pool substrate of the analysis stages.
// Every parallel hot path in the repository (k-means restarts and Lloyd
// assignment passes, BIC SelectK sweeps, GA fitness evaluation and
// sweeps, interval characterization) funnels through these
// helpers so that one invariant is enforced in one place:
//
//	results are byte-identical for any worker count.
//
// The helpers guarantee that by construction:
//
//   - Work is identified by index, never by worker. Each index writes only
//     its own output slot, so completion order cannot reorder results.
//   - Chunk boundaries depend only on the problem size and a fixed grain,
//     never on the worker count, so a caller that reduces per-chunk
//     partial sums in chunk order gets one fixed floating-point reduction
//     order no matter how many goroutines ran.
//   - Sub-seeds are derived with a SplitMix64-style hash (DeriveSeed), not
//     by sharing one *rand.Rand across tasks, so task r consumes the same
//     random stream whether it runs first, last, or alone — and seed 0 is
//     an ordinary, valid seed rather than an "unseeded" sentinel.
//
// A panic in any task is captured and re-raised on the calling goroutine
// once all workers have drained, matching the behavior of a serial loop
// closely enough for the callers here.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Workers resolves a worker-count knob: values < 1 mean GOMAXPROCS.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// sink is the process-wide observability hook. Pool metrics are global
// rather than per-call because every parallel stage in the repository
// funnels through these helpers with a plain (workers, n, fn) signature;
// threading a collector through each call site would put an obs parameter
// on every hot kernel for the benefit of exactly one consumer (the CLIs'
// -report/-metrics flags).
var sink atomic.Pointer[obs.Metrics]

// Instrument installs m as the process-wide pool-metrics sink and returns
// the previous one (nil disables). While installed, every dispatch adds to
// the counters
//
//	par.dispatches      parallel loops entered
//	par.tasks           individual fn invocations completed
//	par.worker_busy_ns  summed per-worker busy wall time, in nanoseconds
//
// Counting is per worker, not per task: one timestamp pair and three
// atomic adds per worker lifetime, so instrumentation cannot slow the
// task loop. The disabled path costs one atomic pointer load per
// dispatch. Metrics never influence scheduling, so results stay
// worker-count deterministic with or without a sink.
func Instrument(m *obs.Metrics) *obs.Metrics {
	return sink.Swap(m)
}

// For runs fn(i) for every i in [0, n), spread over up to workers
// goroutines. Each index must write only to its own output slot(s);
// under that contract the result is identical for any worker count.
// workers < 1 means GOMAXPROCS. With one worker (or n <= 1) it runs
// inline with no goroutines.
func For(workers, n int, fn func(i int)) {
	ForWorker(workers, n, func(_, i int) { fn(i) })
}

// ForWorker is For with the worker's identity passed to fn, for callers
// that keep per-worker scratch state (e.g. one mica.Analyzer per worker).
// Worker identities are in [0, w) where w is the resolved worker count;
// fn must not let the worker index influence the *value* written for an
// index, only which scratch buffer computes it.
func ForWorker(workers, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	m := sink.Load()
	if w == 1 {
		if m == nil {
			for i := 0; i < n; i++ {
				fn(0, i)
			}
			return
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		m.Add("par.dispatches", 1)
		m.Add("par.tasks", int64(n))
		m.Add("par.worker_busy_ns", time.Since(t0).Nanoseconds())
		return
	}
	var next atomic.Int64
	var panicked atomic.Pointer[panicValue]
	var wg sync.WaitGroup
	for id := 0; id < w; id++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			defer capturePanic(&panicked)
			var t0 time.Time
			if m != nil {
				t0 = time.Now()
			}
			tasks := int64(0)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				fn(worker, i)
				tasks++
			}
			if m != nil {
				m.Add("par.tasks", tasks)
				m.Add("par.worker_busy_ns", time.Since(t0).Nanoseconds())
			}
		}(id)
	}
	wg.Wait()
	if m != nil {
		m.Add("par.dispatches", 1)
	}
	rethrow(&panicked)
}

// Grain is the default rows-per-chunk granularity of the chunked kernels:
// coarse enough to amortize scheduling, fine enough to load-balance the
// row counts seen in this pipeline (hundreds to a few thousand).
const Grain = 128

// Chunks returns how many chunks ForChunks will produce for n items at
// the given grain (grain < 1 means the default Grain). The count depends
// only on n and grain — never on the worker count — so callers can
// preallocate one partial-result slot per chunk and reduce them in chunk
// order for a fixed, worker-count-independent reduction order.
func Chunks(n, grain int) int {
	if n <= 0 {
		return 0
	}
	if grain < 1 {
		grain = Grain
	}
	return (n + grain - 1) / grain
}

// ForChunks splits [0, n) into Chunks(n, grain) contiguous chunks and
// runs fn(chunk, lo, hi) for each, spread over up to workers goroutines.
// Chunk boundaries are a pure function of n and grain, so per-chunk
// partials reduced in chunk order are identical for any worker count.
func ForChunks(workers, n, grain int, fn func(chunk, lo, hi int)) {
	if grain < 1 {
		grain = Grain
	}
	nchunks := Chunks(n, grain)
	For(workers, nchunks, func(c int) {
		lo := c * grain
		hi := lo + grain
		if hi > n {
			hi = n
		}
		fn(c, lo, hi)
	})
}

// FirstError returns the first non-nil error in errs (index order), the
// deterministic analogue of "return the error the serial loop would have
// hit first". Parallel loops record per-index errors and pass them here.
func FirstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// DeriveSeed hashes a base seed and a stream index into an independent
// sub-seed with the SplitMix64 finalizer. Adjacent streams land far apart
// in seed space, and no base seed (including 0) collapses to a sentinel,
// which is what makes "Seed: 0" a valid configuration everywhere sub-seeds
// are used.
func DeriveSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) ^ 0x9e3779b97f4a7c15
	z += (stream + 1) * 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// panicValue boxes a recovered panic for transport across goroutines.
type panicValue struct{ v any }

func capturePanic(slot *atomic.Pointer[panicValue]) {
	if r := recover(); r != nil {
		slot.CompareAndSwap(nil, &panicValue{v: r})
	}
}

func rethrow(slot *atomic.Pointer[panicValue]) {
	if p := slot.Load(); p != nil {
		panic(p.v)
	}
}
