package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the library's public entry points. Spans of one op share op; a root
// span (parent -1) is the op itself.
type span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	// Weight scales the span's self time into wall-clock share: spans
	// recorded inside one of w parallel workers carry 1/w, so the layer
	// self times of a parallel stage add up to its wall time.
	Weight float64 `json:"weight"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, op, parent int, weight float64) int {
	s := span{Name: name, Op: op, Parent: parent, Start: t.now(), Weight: weight}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere (service-side
// timestamps, or a replayed duration placed inside its parent).
func (t *tracer) add(name string, op, parent int, start, end, weight float64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: end, Weight: weight})
	return len(t.spans) - 1
}

// at converts a wall-clock instant to the tracer's time base.
func (t *tracer) at(tm time.Time) float64 { return tm.Sub(t.t0).Seconds() }

// attribution is the per-layer breakdown of the traced ops.
type attribution struct {
	ops    int
	opTime float64
	// self maps a span name to its summed weighted self time.
	self map[string]float64
}

// attribute computes every span's self time: its duration minus the
// part of its interval its children cover, times its weight.
func (t *tracer) attribute() attribution {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	a := attribution{self: map[string]float64{}}
	for i, s := range t.spans {
		if s.Parent < 0 {
			a.ops++
			a.opTime += s.End - s.Start
			continue
		}
		children[s.Parent] = append(children[s.Parent], i)
	}
	for i, s := range t.spans {
		if s.Parent < 0 {
			continue
		}
		type iv struct{ lo, hi float64 }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(t.spans[c].Start, s.Start), min(t.spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].lo < ivs[y].lo })
		covered, reach := 0.0, s.Start
		for _, v := range ivs {
			if v.hi <= reach {
				continue
			}
			covered += v.hi - max(v.lo, reach)
			reach = v.hi
		}
		a.self[s.Name] += s.Weight * max(0, s.End-s.Start-covered)
	}
	return a
}

// layerTimes maps the attributed span names onto the per-layer time
// metrics (seconds per op) and adds core.unattributed_s, the traced op
// time no named layer accounts for, so the row sums to the op time.
func layerTimes(a attribution, m map[string]metric) {
	perOp := 1 / float64(max(a.ops, 1))
	named := 0.0
	for _, name := range timedLayers {
		v := a.self[name]
		named += v
		m[name+"_s"] = metric{v * perOp, "s"}
	}
	m["core.unattributed_s"] = metric{(a.opTime - named) * perOp, "s"}
	m["traced.op_s"] = metric{a.opTime * perOp, "s"}
}

// timedLayers are the span names reported as "<name>_s" self times.
var timedLayers = []string{
	"trace.generate", "mica.record", "mica.vector",
	"fcache.get", "fcache.put",
	"stats.pca", "stats.scores",
	"cluster.kmeans", "ga.select",
	"core.export",
	"corpus.query", "corpus.ingest",
	"serve.http", "serve.queue_wait",
}

// printAttribution writes the attribution row: every layer's share of
// the traced op time, the unattributed remainder, and the traced and
// untraced throughput side by side.
func printAttribution(w io.Writer, workload string, m map[string]metric) {
	op := m["traced.op_s"].Value
	var b strings.Builder
	fmt.Fprintf(&b, "attribution %s op=%.6fs:", workload, op)
	total := 0.0
	for _, name := range append(append([]string(nil), timedLayers...), "core.unattributed") {
		v := m[name+"_s"].Value
		total += v
		if v == 0 {
			continue
		}
		fmt.Fprintf(&b, " %s=%.1f%%", name, 100*v/op)
	}
	fmt.Fprintf(&b, " (sum %.1f%%)", 100*total/op)
	fmt.Fprintln(w, b.String())
	fmt.Fprintf(w, "throughput %s traced_ops_per_s=%.4g untraced_ops_per_s=%.4g overhead=%.1f%%\n",
		workload, m["traced.ops_per_s"].Value, m["untraced.ops_per_s"].Value,
		100*(m["untraced.ops_per_s"].Value/m["traced.ops_per_s"].Value-1))
}

// writeSpans dumps the spans as JSON for offline inspection.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// traceFile is where a traced run's spans go (outside the run scratch
// dir, so they outlive it).
func traceFile(o *options) string {
	return filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
}
