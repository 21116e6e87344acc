package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
)

// TestSmoke runs every workload at toy size, untraced and traced, and
// then with one planted wrong expectation, which must surface as exactly
// one failed op — proof that each workload's checks fire.
func TestSmoke(t *testing.T) {
	for _, w := range []string{"cold-export", "warm-reanalyze", "service-mix"} {
		for _, mode := range []string{"plain", "traced", "planted"} {
			t.Run(w+"/"+mode, func(t *testing.T) {
				o := &options{workload: w, seed: 3, seconds: 0.2, smoke: true,
					trace: mode == "traced", plant: mode == "planted",
					root: "..", out: t.TempDir(), log: io.Discard}
				out, err := workloads[w](o)
				if err != nil {
					t.Fatal(err)
				}
				want := 0
				if mode == "planted" {
					want = 1
				}
				if out.attempted < 2 || out.failed != want {
					t.Fatalf("attempted %d, failed %d; want >= 2 attempted, %d failed", out.attempted, out.failed, want)
				}
				if mode == "traced" {
					checkAttribution(t, out.metrics)
				} else {
					for _, name := range []string{"setup_s", "ops_per_s", "peak_rss_mb", "op_p50_ms", "op_p90_ms"} {
						if v := out.metrics[name].Value; !(v > 0) {
							t.Errorf("%s = %v, want > 0", name, v)
						}
					}
				}
			})
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to what the program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	hc := newHostClock()
	var w tally
	tm := hc.time(func() {})
	w.add(tm, 1)
	w.primary(tm.wall, "")
	got, _ := e2e(hc, []timing{tm}, &w, 1)
	if len(spec.EndToEnd) != len(got) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program reports %d", len(spec.EndToEnd), len(got))
	}
	for _, x := range spec.EndToEnd {
		if got[x.Name].Unit != x.Unit {
			t.Errorf("end-to-end %s: unit %q in BENCHMARK.json, %q reported", x.Name, x.Unit, got[x.Name].Unit)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program reports %d", len(spec.PerLayer), len(perLayer))
	}
	for i, x := range spec.PerLayer {
		if i < len(perLayer) && (perLayer[i].name != x.Name || perLayer[i].unit != x.Unit) {
			t.Errorf("per-layer %d: %s/%s in BENCHMARK.json, %s/%s reported", i, x.Name, x.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// checkAttribution asserts a traced run reports every per-layer metric
// and that the layer self times plus core.unattributed_s sum to the
// traced op time.
func checkAttribution(t *testing.T, m map[string]metric) {
	t.Helper()
	if len(m) != len(perLayer) {
		t.Errorf("traced run reports %d metrics, want %d", len(m), len(perLayer))
	}
	for _, l := range perLayer {
		if _, ok := m[l.name]; !ok {
			t.Errorf("traced run lacks %s", l.name)
		}
	}
	total := m["core.unattributed_s"].Value
	for _, name := range timedLayers {
		total += m[name+"_s"].Value
	}
	if op := m["traced.op_s"].Value; op <= 0 || math.Abs(total-op) > 1e-9*op+1e-12 {
		t.Errorf("layer times sum to %v, traced op time %v", total, op)
	}
}
