// Package cliobs wires the observability layer into the command-line
// tools: one call turns the -report / -metrics / -metrics-addr flags into
// a configured obs.Metrics collector, installs the worker-pool hook, and
// returns the teardown that emits the requested artifacts at exit.
//
// It exists so the three CLIs (phasechar, micastat, tracegen) share one
// flag contract and one failure policy: a report or summary the user
// asked for that cannot be produced is an error and a nonzero exit,
// never a silent degradation.
package cliobs

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
)

// ObsFlags carries the values of the shared observability flags. Every
// CLI registers them through RegisterObsFlags so the three tools cannot
// drift apart in spelling, defaults or help text.
type ObsFlags struct {
	// Report is -report: the JSON run-report path.
	Report string
	// Summary is -metrics: print the human-readable summary at exit.
	Summary bool
	// Addr is -metrics-addr: serve live metrics for the run's duration.
	Addr string
}

// RegisterObsFlags registers the shared -report / -metrics /
// -metrics-addr flags on fs and returns the value struct to read after
// parsing.
func RegisterObsFlags(fs *flag.FlagSet) *ObsFlags {
	f := &ObsFlags{}
	fs.StringVar(&f.Report, "report", "", "write a machine-readable JSON run report (stage spans + counters) to this file at exit")
	fs.BoolVar(&f.Summary, "metrics", false, "print the run-metrics summary (stage spans + counters) to stderr at exit")
	fs.StringVar(&f.Addr, "metrics-addr", "", "serve live /metrics (JSON report), /debug/vars and /debug/pprof on this address for the duration of the run, e.g. localhost:6060")
	return f
}

// Setup is Setup(tool, f.Report, f.Summary, f.Addr).
func (f *ObsFlags) Setup(tool string) (*obs.Metrics, func(errp *error), error) {
	return Setup(tool, f.Report, f.Summary, f.Addr)
}

// CorpusFlags carries the shared phase-corpus flags. As with the
// observability flags, the spelling, defaults and help text live here
// so every tool that grows a -corpus flag stays consistent.
type CorpusFlags struct {
	// Dir is -corpus: the phase-corpus directory.
	Dir string
	// TopK is -topk: how many neighbors `query nearest` returns.
	TopK int
	// Radius is -radius: the uniqueness/novelty neighbor radius in the
	// corpus-normalized characteristic space.
	Radius float64
	// Probe is -probe: IVF partitions to scan for `query nearest`
	// (0: exact full scan).
	Probe int
	// Ingest is -corpus-ingest: with the 'service' target, ingest every
	// completed job's result into -corpus.
	Ingest bool
}

// RegisterCorpusFlags registers the shared corpus flags on fs.
func RegisterCorpusFlags(fs *flag.FlagSet) *CorpusFlags {
	f := &CorpusFlags{}
	fs.StringVar(&f.Dir, "corpus", "", "phase-corpus directory: runs ingest their interval vectors and centroids into it (idempotently), and the 'query'/'compact' targets and the service's /corpus/query answer from it")
	fs.IntVar(&f.TopK, "topk", 0, "with 'query nearest': how many neighbors to return (0: default 5)")
	fs.Float64Var(&f.Radius, "radius", 0, "with 'query uniqueness'/'query novelty': neighbor radius in the corpus-normalized characteristic space (0: default 1.0)")
	fs.IntVar(&f.Probe, "probe", 0, "with 'query nearest': scan only this many IVF partitions instead of every row (0: exact scan; >= the quantizer size is identical to exact)")
	fs.BoolVar(&f.Ingest, "corpus-ingest", false, "with the 'service' target: ingest every completed job's result into -corpus")
	return f
}

// ParseWorkers parses a -workers-addr comma-separated worker list into
// normalized base URLs ("http://host:port"); a bare host:port gets the
// http scheme. Empty entries are rejected rather than skipped — a stray
// comma more likely means a mangled host list than an intentional gap.
func ParseWorkers(list string) ([]string, error) {
	var urls []string
	for _, w := range strings.Split(list, ",") {
		w = strings.TrimSpace(w)
		if w == "" {
			return nil, fmt.Errorf("worker list %q has an empty entry", list)
		}
		if !strings.Contains(w, "://") {
			w = "http://" + w
		}
		urls = append(urls, strings.TrimRight(w, "/"))
	}
	if len(urls) == 0 {
		return nil, fmt.Errorf("worker list is empty")
	}
	return urls, nil
}

// ParseShard parses a -shard "i/n" specification into a shard index and
// count, rejecting anything but 0 <= i < n with n >= 1. It lives here so
// every CLI that grows sharding shares one spelling and one error text.
func ParseShard(spec string) (index, count int, err error) {
	idx, cnt, ok := strings.Cut(spec, "/")
	if !ok {
		return 0, 0, fmt.Errorf("shard spec %q is not of the form i/n", spec)
	}
	index, err = strconv.Atoi(idx)
	if err != nil {
		return 0, 0, fmt.Errorf("shard spec %q: bad index: %v", spec, err)
	}
	count, err = strconv.Atoi(cnt)
	if err != nil {
		return 0, 0, fmt.Errorf("shard spec %q: bad count: %v", spec, err)
	}
	if count < 1 {
		return 0, 0, fmt.Errorf("shard spec %q: count %d < 1", spec, count)
	}
	if index < 0 || index >= count {
		return 0, 0, fmt.Errorf("shard spec %q: index %d outside [0,%d)", spec, index, count)
	}
	return index, count, nil
}

// Setup builds the CLI's metrics collector from its observability flags.
// When none of the flags are set it returns a nil collector (the
// disabled, near-zero-overhead path) and a no-op finish.
//
// Otherwise it returns a live collector — already labelled with the tool
// name, installed as the par worker-pool sink, and served on addr if one
// was given — plus a finish func to defer: finish writes the JSON report
// to reportPath, prints the human-readable summary to stderr when
// summary is set, and promotes a report-write failure into *errp (unless
// an earlier error is already there) so the process exits nonzero.
func Setup(tool, reportPath string, summary bool, addr string) (*obs.Metrics, func(errp *error), error) {
	if reportPath == "" && !summary && addr == "" {
		return nil, func(*error) {}, nil
	}
	m := obs.New()
	m.SetTool(tool)
	par.Instrument(m)
	var stopServe func(context.Context) error
	if addr != "" {
		bound, shutdown, err := m.Serve(addr)
		if err != nil {
			par.Instrument(nil)
			return nil, nil, err
		}
		stopServe = shutdown
		fmt.Fprintf(os.Stderr, "%s: serving metrics at http://%s/metrics (and /debug/pprof)\n", tool, bound)
	}
	finish := func(errp *error) {
		par.Instrument(nil)
		if stopServe != nil {
			// Drain in-flight metrics scrapes instead of killing them with
			// the process; a scrape that cannot finish in time is dropped.
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_ = stopServe(ctx)
			cancel()
		}
		if reportPath != "" {
			if werr := m.WriteReport(reportPath); werr != nil && *errp == nil {
				*errp = werr
			}
		}
		if summary {
			fmt.Fprint(os.Stderr, m.Summary())
		}
	}
	return m, finish, nil
}
