package fcache

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGetOrComputeSingleflight is the core concurrency contract: K
// goroutines asking for the same missing key run exactly one compute,
// and every caller gets identical bytes.
func TestGetOrComputeSingleflight(t *testing.T) {
	c := testCache(t)
	k := testKey()
	want := []byte("expensive artifact")
	var computes atomic.Int64

	const K = 16
	var wg sync.WaitGroup
	results := make([][]byte, K)
	errs := make([]error, K)
	start := make(chan struct{})
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			p, _, err := c.GetOrCompute(k, func() ([]byte, error) {
				computes.Add(1)
				time.Sleep(20 * time.Millisecond) // widen the race window
				return append([]byte(nil), want...), nil
			})
			results[i], errs[i] = p, err
		}(i)
	}
	close(start)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", n)
	}
	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i], want) {
			t.Fatalf("caller %d payload = %q, want %q", i, results[i], want)
		}
	}
}

// TestGetOrComputePrivateBuffers checks waiters never alias the leader's
// payload: mutating one caller's result must not corrupt another's.
func TestGetOrComputePrivateBuffers(t *testing.T) {
	c := testCache(t)
	k := testKey()
	const K = 8
	var wg sync.WaitGroup
	results := make([][]byte, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, _, err := c.GetOrCompute(k, func() ([]byte, error) {
				time.Sleep(10 * time.Millisecond)
				return []byte("pristine"), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = p
		}(i)
	}
	wg.Wait()
	results[0][0] = 'X'
	for i := 1; i < K; i++ {
		if string(results[i]) != "pristine" {
			t.Fatalf("caller %d saw mutation through caller 0's buffer: %q", i, results[i])
		}
	}
}

// TestGetOrComputeHit short-circuits entirely when the entry exists.
func TestGetOrComputeHit(t *testing.T) {
	c := testCache(t)
	k := testKey()
	if err := c.Put(k, []byte("cached")); err != nil {
		t.Fatal(err)
	}
	p, computed, err := c.GetOrCompute(k, func() ([]byte, error) {
		t.Fatal("compute ran despite a cache hit")
		return nil, nil
	})
	if err != nil || computed || string(p) != "cached" {
		t.Fatalf("got (%q, computed=%v, %v), want (cached, false, nil)", p, computed, err)
	}
}

// TestGetOrComputeErrorPropagates delivers the leader's compute error to
// every in-process waiter, and a later call retries.
func TestGetOrComputeErrorPropagates(t *testing.T) {
	c := testCache(t)
	k := testKey()
	boom := errors.New("generation failed")
	var computes atomic.Int64

	const K = 6
	var wg sync.WaitGroup
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.GetOrCompute(k, func() ([]byte, error) {
				computes.Add(1)
				time.Sleep(10 * time.Millisecond)
				return nil, boom
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d err = %v, want %v", i, err, boom)
		}
	}
	// The failed flight must not wedge the key: a retry computes afresh.
	p, computed, err := c.GetOrCompute(k, func() ([]byte, error) {
		computes.Add(1)
		return []byte("second try"), nil
	})
	if err != nil || !computed || string(p) != "second try" {
		t.Fatalf("retry got (%q, computed=%v, %v)", p, computed, err)
	}
}

// TestGetOrComputeIgnoresLeftoverClaim: a fresh "<entry>.claim" file,
// as a build that staked cross-process claims leaves behind when it is
// killed mid-compute, is inert — it neither delays the compute nor is
// touched by it.
func TestGetOrComputeIgnoresLeftoverClaim(t *testing.T) {
	c := testCache(t)
	k := testKey()
	p := c.path(k)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	claim := p + ".claim"
	if err := os.WriteFile(claim, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	type result struct {
		payload  []byte
		computed bool
		err      error
	}
	done := make(chan result, 1)
	go func() {
		payload, computed, err := c.GetOrCompute(k, func() ([]byte, error) {
			return []byte("computed"), nil
		})
		done <- result{payload, computed, err}
	}()
	select {
	case r := <-done:
		if r.err != nil || !r.computed || string(r.payload) != "computed" {
			t.Fatalf("got (%q, computed=%v, %v), want an immediate compute", r.payload, r.computed, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("GetOrCompute stalled behind a leftover claim file")
	}
	if got, ok := c.Get(k); !ok || string(got) != "computed" {
		t.Fatalf("computed entry not persisted: (%q, %v)", got, ok)
	}
	if _, err := os.Stat(claim); err != nil {
		t.Fatalf("leftover claim file should be left alone: %v", err)
	}
}

// TestGetOrComputeDistinctKeys: different keys do not serialize behind
// one another's flights.
func TestGetOrComputeDistinctKeys(t *testing.T) {
	c := testCache(t)
	const K = 8
	var wg sync.WaitGroup
	var computes atomic.Int64
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := testKey()
			k.Seed = uint64(i)
			p, _, err := c.GetOrCompute(k, func() ([]byte, error) {
				computes.Add(1)
				return []byte(fmt.Sprintf("artifact %d", i)), nil
			})
			if err != nil {
				t.Error(err)
			}
			if want := fmt.Sprintf("artifact %d", i); string(p) != want {
				t.Errorf("key %d payload = %q, want %q", i, p, want)
			}
		}(i)
	}
	wg.Wait()
	if n := computes.Load(); n != K {
		t.Fatalf("computes = %d, want %d (one per distinct key)", n, K)
	}
}

// TestSweepAgeGating: the stale sweep is mtime-gated — a freshly
// created temp (a live Put in another process) survives, while an
// hour-old orphan is reclaimed, and entries are never touched.
func TestSweepAgeGating(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "ab", "cd")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	freshTemp := filepath.Join(sub, tempPrefix+"fresh")
	staleTemp := filepath.Join(sub, tempPrefix+"stale")
	entry := filepath.Join(sub, "0123456789abcdef.fc")
	for _, f := range []string{freshTemp, staleTemp, entry} {
		if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTempAge)
	for _, f := range []string{staleTemp, entry} {
		if err := os.Chtimes(f, old, old); err != nil {
			t.Fatal(err)
		}
	}

	if swept := sweepStaleTemps(dir); swept != 1 {
		t.Fatalf("swept = %d, want 1 (the stale temp)", swept)
	}
	for _, f := range []string{freshTemp, entry} {
		if _, err := os.Stat(f); err != nil {
			t.Fatalf("%s should have survived the sweep: %v", filepath.Base(f), err)
		}
	}
	if _, err := os.Stat(staleTemp); !os.IsNotExist(err) {
		t.Fatalf("%s should have been reclaimed (err = %v)", filepath.Base(staleTemp), err)
	}
}
