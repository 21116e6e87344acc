// Command perfbench is the repository benchmark. It drives the library
// in-process, one workload per process, and prints every metric by name
// with its unit; the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
//
//	perfbench -workload cold-export|warm-reanalyze|service-mix \
//	    -seed N -seconds S -trace 0|1 [-smoke] [-plant]
//
// With -trace 0 it measures the end-to-end metrics with tracing off,
// with times scaled to reference host speed by a kernel timed between
// ops (see e2e and README.md); the raw values are printed too.
// With -trace 1 it replays each op through the library's public entry
// points with a span around every call into a layer, and reports the
// per-layer metrics: self times, counts and ratios, plus an attribution
// row (layer self times and core.unattributed_s against the traced op
// time) and the traced and untraced ops_per_s side by side. Spans are
// written to <out>/trace-<workload>-seed<N>.json at exit.
//
// -smoke shrinks every workload to toy size; -plant additionally plants
// one wrong expectation, which must surface as exactly one failed op.
// run.sh builds the binary and passes -root and -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// options is one invocation's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	plant    bool
	// root is the repository checkout (models/ is read from there).
	root string
	// out holds the run's scratch dir and the trace files.
	out string
	// tmp is the run's scratch dir, removed at exit.
	tmp string
	// log receives progress and report lines; the result JSON is not
	// written through it.
	log io.Writer
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run produced.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	// raw holds the end-to-end values as measured, before the scaling
	// to reference host speed (see e2e); printed, not in the result.
	raw map[string]metric
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(*options) (*outcome, error){
	"cold-export":    runColdExport,
	"warm-reanalyze": runWarmReanalyze,
	"service-mix":    runServiceMix,
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: cold-export, warm-reanalyze or service-mix")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; every pipeline, k-means, GA and request draw derives from it")
	flag.Float64Var(&o.seconds, "seconds", 10, "timed window length in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "toy-size workloads")
	flag.BoolVar(&o.plant, "plant", false, "plant one wrong expectation (must fail exactly one op)")
	flag.StringVar(&o.root, "root", ".", "repository checkout")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for temp dirs and trace files")
	flag.Parse()
	o.trace = traceFlag == 1
	o.log = os.Stdout
	if err := run(&o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one workload and prints its report and result line.
func run(o *options, w io.Writer) error {
	fn, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want cold-export, warm-reanalyze or service-mix)", o.workload)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if _, err := os.Stat(modelsPath(o)); err != nil {
		return fmt.Errorf("repository sources not found under %s: %w", o.root, err)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	env, _ := json.Marshal(environment())
	fmt.Fprintf(w, "env %s\n", env)
	out, err := fn(o)
	if err != nil {
		return err
	}
	printMetrics(w, "raw", out.raw)
	printMetrics(w, "metric", out.metrics)
	line, err := json.Marshal(result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func printMetrics(w io.Writer, label string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %-26s %14.6g %s\n", label, n, m[n].Value, m[n].Unit)
	}
}

// environment records what the numbers were measured on.
func environment() map[string]any {
	cpu := "unknown"
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(buf), "\n") {
			if name, ok := strings.CutPrefix(l, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpu,
		"go":         runtime.Version(),
	}
}
