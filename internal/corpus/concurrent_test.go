package corpus

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// concurrentBatches are the ingests of TestConcurrentQueriesMatchSerial:
// three suites whose rows drift with the batch number, so every ingest
// changes every query's answer.
func concurrentBatches(n int) []Batch {
	g := lcg(9)
	out := make([]Batch, n)
	for i := range out {
		b := Batch{Dataset: uint64(0x100 + i), Seed: 1}
		for r := 0; r < 48; r++ {
			suite := []string{"A", "B", "C"}[r%3]
			v := make([]float64, 5)
			for j := range v {
				v[j] = float64(r%6)*0.7 + float64(i)*0.15*float64(j%2) + g.next()
			}
			b.Entries = append(b.Entries, Entry{
				Bench: fmt.Sprintf("%s/b%d", suite, r%4), Suite: suite,
				Kind: KindInterval, Index: i*48 + r, Vector: v,
			})
		}
		b.Entries = append(b.Entries, Entry{Kind: KindCentroid, Vector: b.Entries[5].Vector})
		out[i] = b
	}
	return out
}

// TestConcurrentQueriesMatchSerial: queries running while a writer
// ingests and compacts each answer, byte for byte, as some serial
// corpus state would: one holding at least every ingest that completed
// before the query started and at most every ingest that started before
// it returned.
func TestConcurrentQueriesMatchSerial(t *testing.T) {
	const readers = 4
	batches := concurrentBatches(8)
	queries := []QueryRequest{
		{Op: "nearest", Ref: "A/b0#0", K: 6},
		{Op: "nearest", Vector: []float64{1, 2, 1, 2, 1}, K: 4, Probe: 2},
		{Op: "uniqueness", Bench: "B/b1", Radius: 0.8},
		{Op: "novelty", Suite: "C", Radius: 0.8},
	}
	// want[k][q] is query q's answer after the first k ingests.
	want := make([][][]byte, len(batches)+1)
	serial := openWith(t)
	for k := 1; k <= len(batches); k++ {
		if _, err := serial.IngestBatch(batches[k-1]); err != nil {
			t.Fatal(err)
		}
		for q := range queries {
			want[k] = append(want[k], queryBytes(t, serial, queries[q]))
			if k > 1 && bytes.Equal(want[k][q], want[k-1][q]) {
				t.Fatalf("%+v: ingest %d left the answer unchanged; no state could be told apart", queries[q], k)
			}
		}
	}

	c := openWith(t, batches[0])
	var started, completed atomic.Int64 // ingests, the first included
	started.Store(1)
	completed.Store(1)
	done := make(chan struct{})
	answered := make(chan struct{}, readers)
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A reader returns at its first failure.
			for i := w; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				q := i % len(queries)
				lo := int(completed.Load())
				resp, err := c.Query(queries[q])
				hi := int(started.Load())
				if err != nil {
					t.Errorf("%+v: %v", queries[q], err)
					return
				}
				var got bytes.Buffer
				if err := WriteResponse(&got, resp); err != nil {
					t.Errorf("%+v: %v", queries[q], err)
					return
				}
				match := false
				for k := lo; k <= hi && !match; k++ {
					match = bytes.Equal(got.Bytes(), want[k][q])
				}
				if !match {
					t.Errorf("%+v answered between ingests %d and %d, but matches no serial state in that range:\n%s",
						queries[q], lo, hi, got.Bytes())
					return
				}
				select {
				case answered <- struct{}{}:
				default:
				}
			}
		}(w)
	}

	readersGone := make(chan struct{})
	go func() {
		wg.Wait()
		close(readersGone)
	}()

	// The writer lets a few queries finish between its mutations, so
	// every state is queried, and queries overlap each mutation.
	for k := 2; k <= len(batches); k++ {
		for range readers {
			select {
			case <-answered:
			case <-readersGone:
			}
		}
		started.Add(1)
		if _, err := c.IngestBatch(batches[k-1]); err != nil {
			t.Error(err)
			break
		}
		completed.Add(1)
		if k%3 == 0 {
			if _, err := c.Compact(); err != nil {
				t.Error(err)
				break
			}
		}
	}
	close(done)
	<-readersGone
}
