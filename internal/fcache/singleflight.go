package fcache

// Compute once per process. The cache's atomic-rename writes make
// concurrent same-key writers *safe* (readers never see a torn entry)
// but not *cheap*: two callers that need the same missing artifact
// would both burn a full compute. GetOrCompute closes that gap within
// one process: concurrent goroutines (service jobs) asking for one key
// elect a leader, which computes and persists the entry; the rest wait
// and read the leader's entry from the cache (memory-speed with the hot
// tier).
//
// Separate processes sharing a directory do not coordinate: if two race
// on one key, each computes and writes identical bytes by atomic rename.
// Duplicate work is the worst case, never wrong bytes, and a process
// killed mid-compute leaves nothing behind that a later run must wait
// out.

import "sync"

// flight is one in-process leader's in-flight computation.
type flight struct {
	done chan struct{}
	err  error
}

// flights tracks in-flight computations per (dir, key-hash), process
// global so independent Cache handles on one directory still collapse
// concurrent computes.
var flights struct {
	sync.Mutex
	m map[string]*flight
}

// GetOrCompute returns the payload for k, computing it at most once per
// key across this process's goroutines. computed reports whether this
// call ran compute itself (false: the payload was served from the cache
// or a concurrent leader). A compute error is returned to the leader and
// to every in-process waiter.
func (c *Cache) GetOrCompute(k Key, compute func() ([]byte, error)) (payload []byte, computed bool, err error) {
	if p, ok := c.Get(k); ok {
		return p, false, nil
	}
	id := c.path(k)
	for {
		flights.Lock()
		if flights.m == nil {
			flights.m = make(map[string]*flight)
		}
		if f, ok := flights.m[id]; ok {
			flights.Unlock()
			<-f.done
			c.sfShared.Inc()
			if f.err != nil {
				return nil, false, f.err
			}
			// Re-read rather than alias the leader's buffer: the entry is
			// on disk (and in the hot tier), and a fresh payload cannot
			// leak one caller's zero-copy decode into another's.
			if p, ok := c.Get(k); ok {
				return p, false, nil
			}
			// The leader computed but its Put failed; compute ourselves.
			continue
		}
		f := &flight{done: make(chan struct{})}
		flights.m[id] = f
		flights.Unlock()

		payload, err = compute()
		if err == nil && c.Put(k, payload) == nil {
			c.sfLeader.Inc()
		}
		f.err = err
		flights.Lock()
		delete(flights.m, id)
		flights.Unlock()
		close(f.done)
		return payload, true, err
	}
}
