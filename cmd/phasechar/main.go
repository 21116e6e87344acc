// Command phasechar runs the phase-level workload characterization
// pipeline of Hoste & Eeckhout (ISPASS 2008) over the five synthetic
// benchmark suites and regenerates the paper's tables and figures.
//
// Usage:
//
//	phasechar [flags] <experiment>|all|list
//
// Experiments: table1 table2 table3 fig1 fig23 fig4 fig5 fig6
// ablation-aggregate ablation-k ablation-sampling.
//
// Examples:
//
//	phasechar list
//	phasechar -out results fig4
//	phasechar -paper-scale -out results all
//
// With -cache every stage persists its artifact and looks it up before
// computing, so a rerun with the same config recomputes nothing. The
// characterization stage can also be split across processes:
//
//	phasechar -cache .cache -shard 0/3 shard     # one worker per shard
//	phasechar -cache .cache -shard 1/3 shard
//	phasechar -cache .cache -shard 2/3 shard
//	phasechar -cache .cache -merge 3 export      # merge + analysis
//	phasechar -cache .cache export               # rerun: recomputes nothing
//
// Or split across machines with no shared filesystem: each worker runs a
// shard server, and the coordinator ships shards over HTTP (the result is
// byte-identical to a single-process run, whatever workers or faults the
// run sees):
//
//	phasechar -addr 10.0.0.2:8421 serve          # on each worker machine
//	phasechar -cache .cache \
//	    -workers-addr 10.0.0.2:8421,10.0.0.3:8421 export
//
// Growing a dataset reuses the previous run's cached work: a cached run
// whose roster is a superset of the last one characterizes only the new
// benchmarks, then refits PCA and k-means exactly, so it exports the
// same bytes as a cold run over the full roster:
//
//	phasechar -cache .cache -suites BioPerf,BMW export   # the baseline
//	phasechar -cache .cache export                       # new benchmarks only
//
// Or run as a long-lived characterization service: a front door that
// accepts analysis jobs over HTTP, runs them against a shared cache
// (with an in-memory hot tier, so repeat queries answer at memory
// speed), and streams status and byte-identical results back:
//
//	phasechar -cache .cache -addr 127.0.0.1:8430 service   # the server
//	phasechar -server http://127.0.0.1:8430 -tenant alice \
//	    -quick -suites BioPerf submit > result.json        # a client
//
// Suites are data: the roster can be exported as a declarative model
// file, edited or extended (models/ ships an emerging big-data suite),
// and loaded back — locally, or inline in a service job so tenants
// characterize their own workloads against the shared cache:
//
//	phasechar -export-models > roster.json               # dump the built-ins
//	phasechar -models models -suites BigData export      # run a loaded suite
//	phasechar -server http://127.0.0.1:8430 \
//	    -models models -suites BigData submit            # ship it inline
//
// Runs accumulate into a persistent phase corpus: -corpus ingests each
// completed run's interval vectors and cluster centroids (idempotently —
// re-running the same dataset is a no-op), and the corpus answers
// similarity and uniqueness questions offline or through the service:
//
//	phasechar -quick -corpus .corpus export > run.json   # run + ingest
//	phasechar -corpus .corpus query stats
//	phasechar -corpus .corpus -topk 3 query nearest BioPerf/blastp#12
//	phasechar -corpus .corpus -radius 1.5 query novelty BigData
//	phasechar -corpus .corpus compact
//	phasechar -cache .cache -corpus .corpus -corpus-ingest \
//	    -addr 127.0.0.1:8430 service     # + POST /corpus/query
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/cliobs"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/serve"
	"repro/internal/shardnet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "phasechar:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		out         = flag.String("out", "", "directory for SVG/CSV artifacts (empty: text output only)")
		interval    = flag.Int("interval", 0, "instructions per interval (0: default)")
		samples     = flag.Int("samples", 0, "sampled intervals per benchmark (0: default)")
		clusters    = flag.Int("clusters", 0, "number of k-means clusters (0: default 300)")
		prominent   = flag.Int("prominent", 0, "number of prominent phases (0: default 100)")
		key         = flag.Int("key", 0, "number of GA-selected key characteristics (0: default 12)")
		seed        = flag.Int64("seed", 1, "pipeline seed")
		workers     = flag.Int("workers", 0, "parallel workers for every stage — characterization, k-means, GA (0: GOMAXPROCS; results are worker-count independent)")
		paperScale  = flag.Bool("paper-scale", false, "use larger, closer-to-paper parameters (slower)")
		quick       = flag.Bool("quick", false, "use small, fast parameters (for smoke runs)")
		quiet       = flag.Bool("quiet", false, "suppress progress logging")
		cacheDir    = flag.String("cache", "", "artifact cache directory: interval vectors and every stage's output persist across runs, a rerun loads each valid artifact instead of recomputing it, and a run over a superset of the last run's roster characterizes only the added benchmarks (empty: no cache)")
		shardSpec   = flag.String("shard", "", "with the 'shard' target: characterize only shard i/n of the benchmarks (e.g. 0/3) and persist it as a shard artifact in -cache")
		mergeN      = flag.Int("merge", 0, "assemble the characterization from n shard artifacts in -cache (computing any missing shard locally) before the analysis stages")
		cpuProf     = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf     = flag.String("memprofile", "", "write a heap profile to this file")
		serveAddr   = flag.String("addr", "127.0.0.1:0", "with the 'serve' target: address to serve shard requests on (port 0: ephemeral)")
		workersAddr = flag.String("workers-addr", "", "comma-separated shard-worker addresses (host:port): distribute the characterization shards over HTTP before the analysis (requires -cache; default shard count: one per worker)")
		rpcTimeout  = flag.Duration("rpc-timeout", 30*time.Second, "per-shard-request deadline for -workers-addr runs")
		rpcRetries  = flag.Int("rpc-retries", 2, "extra attempts per worker per shard before the worker is declared dead")
		rpcFaults   = flag.String("rpc-faults", "", "inject transport faults into -workers-addr runs, e.g. '0:5xx,corrupt;2:down' (workerIndex:kinds; kinds: drop delay corrupt 5xx hang down) — for testing; never changes results")
		suites      = flag.String("suites", "", "comma-separated suite filter (e.g. BioPerf,SPECint2000): run the pipeline over only these suites' benchmarks (empty: all loaded suites)")
		models      = flag.String("models", "", "workload-model file or directory of *.json files: loaded suites replace same-named built-in suites and append otherwise (see DESIGN.md 'Workload model format')")
		exportM     = flag.Bool("export-models", false, "print the loaded benchmark roster (after -models and -suites) as a model file on stdout and exit")
		serverURL   = flag.String("server", "", "with the 'submit' target: base URL of a running characterization service (e.g. http://127.0.0.1:8430)")
		tenant      = flag.String("tenant", "", "with the 'submit' target: tenant name sent as X-Tenant (empty: anonymous)")
		queueDepth  = flag.Int("queue-depth", 16, "with the 'service' target: max queued jobs beyond the running ones; submissions past it get 429")
		jobWorkers  = flag.Int("job-workers", 2, "with the 'service' target: jobs run concurrently")
		hotMB       = flag.Int("hot-mb", 256, "with the 'service' target: in-memory hot-tier byte budget in MiB in front of -cache (0: no hot tier)")
		quotaBurst  = flag.Float64("quota-burst", 0, "with the 'service' target: per-tenant token-bucket burst; 0 disables quotas")
		quotaRate   = flag.Float64("quota-rate", 1, "with the 'service' target: per-tenant token refill rate (submissions per second)")
		obsFlags    = cliobs.RegisterObsFlags(flag.CommandLine)
		corpusFlags = cliobs.RegisterCorpusFlags(flag.CommandLine)
	)
	flag.Parse()

	// The shard/merge workflow lives in the cache; refusing early beats a
	// misleading in-memory run that persists nothing.
	if *shardSpec != "" && *mergeN > 0 {
		return fmt.Errorf("-shard and -merge are different halves of the workflow: shard in worker runs, merge in the final run")
	}
	if (*shardSpec != "" || *mergeN > 0) && *cacheDir == "" {
		return fmt.Errorf("-shard and -merge need -cache (shard artifacts are stored there)")
	}
	if *mergeN < 0 {
		return fmt.Errorf("-merge %d: shard count must be positive", *mergeN)
	}
	if *workersAddr != "" && *shardSpec != "" {
		return fmt.Errorf("-workers-addr and -shard are different roles: the coordinator distributes shards, a worker serves or computes one")
	}
	if *workersAddr != "" && *cacheDir == "" {
		return fmt.Errorf("-workers-addr needs -cache (fetched shard artifacts are stored there for the merge)")
	}
	if corpusFlags.Ingest && corpusFlags.Dir == "" {
		return fmt.Errorf("-corpus-ingest needs -corpus (the phase database completed jobs accumulate into)")
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		// A profile that fails to flush is a failed run, not a warning:
		// the caller asked for the file and must not get a bad one with
		// exit status 0.
		if perr := stopProf(); perr != nil && err == nil {
			err = fmt.Errorf("profile: %w", perr)
		}
	}()

	m, finishObs, err := obsFlags.Setup("phasechar")
	if err != nil {
		return err
	}
	defer finishObs(&err)
	if flag.NArg() < 1 && !*exportM {
		flag.Usage()
		return fmt.Errorf("expected an experiment id (or 'all' / 'list' / 'export' / 'simpoints <benchmark>')")
	}
	target := flag.Arg(0)
	if *shardSpec != "" && target != "shard" {
		return fmt.Errorf("-shard only characterizes (target 'shard'); run the analysis over the shards with -merge %s", *shardSpec)
	}

	// The run's analysis knobs as a service job spec: local runs build
	// their registry and config from it exactly as the service does, and
	// the submit target sends it.
	spec := serve.JobSpec{
		Suites:    *suites,
		Seed:      *seed,
		Interval:  *interval,
		Samples:   *samples,
		Clusters:  *clusters,
		Prominent: *prominent,
		Key:       *key,
		Workers:   *workers,
	}
	switch {
	case *paperScale:
		spec.Preset = "paper-scale"
	case *quick:
		spec.Preset = "quick"
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	if *quiet {
		logf = nil
	}

	if target == "list" {
		for _, x := range experiments.All() {
			fmt.Printf("  %-19s %s\n", x.ID, x.Title)
		}
		fmt.Printf("  %-19s %s\n", "export", "run the pipeline and dump a JSON summary to stdout")
		fmt.Printf("  %-19s %s\n", "simpoints <bench>", "select weighted simulation points for one benchmark (section 5.3)")
		fmt.Printf("  %-19s %s\n", "shard", "characterize one shard of the benchmarks (-shard i/n, requires -cache)")
		fmt.Printf("  %-19s %s\n", "serve", "serve shard computations over HTTP for a -workers-addr coordinator (-addr host:port)")
		fmt.Printf("  %-19s %s\n", "service", "run the long-lived characterization service: analysis jobs over HTTP against a shared -cache (-addr host:port)")
		fmt.Printf("  %-19s %s\n", "submit", "submit this invocation's parameters as a job to a running service (-server URL) and print the result JSON")
		fmt.Printf("  %-19s %s\n", "query <op> [arg]", "answer a phase-corpus question from -corpus: stats | nearest suite/bench#index | uniqueness suite/bench | novelty Suite")
		fmt.Printf("  %-19s %s\n", "compact", "merge the -corpus segments into one (queries answer identically before and after)")
		return nil
	}

	if target == "query" || target == "compact" {
		return runCorpus(target, corpusFlags, m)
	}

	var modelFile *bench.ModelFile
	if *models != "" {
		if modelFile, err = bench.ReadModelFiles(*models); err != nil {
			return err
		}
	}
	reg, cfg, err := spec.Build(modelFile)
	if err != nil {
		return err
	}
	cfg.CacheDir = *cacheDir
	cfg.Shard = *mergeN
	cfg.Metrics = m
	// Run writes the report when the pipeline completes; the deferred
	// finish rewrites it at exit with the post-pipeline stages (GA
	// selection, sweeps) included.
	cfg.ReportPath = obsFlags.Report

	if *exportM {
		data, err := reg.ExportModels()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	}

	if target == "serve" {
		srv := &shardnet.Server{Reg: reg, Workers: *workers, CacheDir: *cacheDir, Metrics: m, Logf: logf}
		// SIGINT/SIGTERM drain in-flight shard requests instead of
		// killing them mid-frame; a clean drain exits 0.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		return srv.Serve(ctx, *serveAddr, func(a net.Addr) {
			// The bound address goes to stdout so scripts starting workers on
			// ephemeral ports (-addr host:0) can scrape where to reach them.
			fmt.Printf("phasechar: listening at http://%s\n", a)
		})
	}

	if target == "service" {
		if *cacheDir == "" {
			return fmt.Errorf("the service target needs -cache (jobs share artifacts through it)")
		}
		if corpusFlags.TopK != 0 || corpusFlags.Radius != 0 || corpusFlags.Probe != 0 {
			return fmt.Errorf("-topk, -radius and -probe shape local 'query' runs; service clients send them in the /corpus/query body")
		}
		// The service always runs with a live collector: /metrics is part
		// of its API. The obs flags still control report/summary output.
		sm := m
		if sm == nil {
			sm = obs.New()
			sm.SetTool("phasechar")
		}
		srv, err := serve.New(serve.Config{
			CacheDir:    *cacheDir,
			QueueDepth:  *queueDepth,
			Workers:     *jobWorkers,
			HotBytes:    int64(*hotMB) << 20,
			QuotaPerSec: *quotaRate,
			QuotaBurst:  *quotaBurst,
			Metrics:     sm,
			Logf:        logf,
			CorpusDir:   corpusFlags.Dir,
			IngestJobs:  corpusFlags.Ingest,
		})
		if err != nil {
			return err
		}
		// SIGINT/SIGTERM shut down gracefully (drain requests, finish
		// running jobs) and exit 0; a dead listener exits nonzero.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		return srv.Serve(ctx, *serveAddr, func(a net.Addr) {
			fmt.Printf("phasechar: characterization service at http://%s\n", a)
		})
	}

	if target == "submit" {
		if *serverURL == "" {
			return fmt.Errorf("the submit target needs -server http://host:port (a running 'service')")
		}
		if modelFile != nil {
			if spec.Models, err = json.Marshal(modelFile); err != nil {
				return err
			}
		}
		client := &serve.Client{Base: *serverURL, Tenant: *tenant}
		st, err := client.Submit(spec)
		if err != nil {
			return err
		}
		last, err := client.Events(st.ID, func(s serve.Status) {
			if logf != nil {
				logf("phasechar: job %s %s", s.ID, s.State)
			}
		})
		if err != nil {
			return err
		}
		if last.State != serve.StateDone {
			return fmt.Errorf("job %s ended %s: %s", st.ID, last.State, last.Error)
		}
		result, err := client.Result(st.ID, false)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(result)
		return err
	}

	if *workersAddr != "" {
		urls, err := cliobs.ParseWorkers(*workersAddr)
		if err != nil {
			return err
		}
		if cfg.Shard < 1 {
			// One shard per worker unless -merge chose a finer split.
			cfg.Shard = len(urls)
		}
		coord := &shardnet.Coordinator{
			Workers: urls,
			Timeout: *rpcTimeout,
			Retries: *rpcRetries,
			Seed:    *seed,
			Metrics: m,
			Logf:    logf,
		}
		if *rpcFaults != "" {
			hosts := make([]string, len(urls))
			for i, u := range urls {
				_, hosts[i], _ = strings.Cut(u, "://")
			}
			faults := shardnet.NewFaults(nil, *seed)
			if err := faults.AddSpec(*rpcFaults, hosts); err != nil {
				return err
			}
			coord.Transport = faults
		}
		stats, err := coord.Distribute(reg, cfg)
		if err != nil {
			return err
		}
		if logf != nil {
			logf("distributed: %d/%d shards remote, %d local, %d retries, %d reassigned, %d dead workers",
				stats.Remote, stats.Shards, stats.Local, stats.Retries, stats.Reassigned, stats.DeadWorkers)
		}
	}

	env := experiments.NewEnv(reg, cfg, *out, logf)

	switch target {
	case "shard":
		if *shardSpec == "" {
			return fmt.Errorf("the shard target needs -shard i/n to pick which shard to characterize")
		}
		index, count, err := cliobs.ParseShard(*shardSpec)
		if err != nil {
			return err
		}
		_, info, err := core.EncodeShard(reg, cfg, index, count, logf)
		if err != nil {
			return err
		}
		state := "characterized"
		if info.Resumed {
			state = "already present"
		}
		fmt.Printf("shard %d/%d %s: %d benchmarks, %d sampled rows, %d unique intervals, %d instructions\n",
			info.Index, info.Count, state, info.Benchmarks, info.Refs, info.UniqueIntervals, info.Instructions)
		return nil
	case "export":
		res, err := env.Result()
		if err != nil {
			return err
		}
		if err := ingestCorpus(env, corpusFlags, m, logf); err != nil {
			return err
		}
		return res.WriteJSON(os.Stdout)
	case "simpoints":
		if flag.NArg() != 2 {
			return fmt.Errorf("usage: phasechar simpoints <suite/benchmark>")
		}
		b, err := reg.Lookup(flag.Arg(1))
		if err != nil {
			return err
		}
		res, err := env.Result()
		if err != nil {
			return err
		}
		points, err := res.SimulationPoints(b.ID(), 10)
		if err != nil {
			return err
		}
		fmt.Printf("simulation points for %s (up to 10):\n", b.ID())
		for _, p := range points {
			fmt.Printf("  interval %4d  weight %5.1f%%  phase %-24s cluster %d\n",
				p.Ref.Index, 100*p.Weight, p.Ref.PhaseName(), p.Cluster)
		}
		acc, err := res.SimPointAccuracy(b.ID(), points)
		if err != nil {
			return err
		}
		fmt.Printf("mean relative characteristic error vs full run: %.1f%%\n", 100*acc)
		return ingestCorpus(env, corpusFlags, m, logf)
	}

	var todo []experiments.Experiment
	if target == "all" {
		todo = experiments.All()
	} else {
		x, ok := experiments.ByID(target)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try 'list')", target)
		}
		todo = []experiments.Experiment{x}
	}
	for i, x := range todo {
		if i > 0 {
			fmt.Println()
		}
		report, err := x.Run(env)
		if err != nil {
			return fmt.Errorf("%s: %w", x.ID, err)
		}
		fmt.Print(report)
	}
	if target == "all" && *out != "" {
		if err := experiments.WriteGallery(*out); err != nil {
			return err
		}
	}
	return ingestCorpus(env, corpusFlags, m, logf)
}

// runCorpus answers the corpus-only targets — "query <op> [arg]" asks
// one question of the -corpus phase database, "compact" merges its
// segments — without building a benchmark registry: both work purely
// from what earlier runs persisted.
func runCorpus(target string, cf *cliobs.CorpusFlags, m *obs.Metrics) error {
	if cf.Dir == "" {
		return fmt.Errorf("the %s target needs -corpus <dir> (the phase database to answer from)", target)
	}
	c, err := corpus.Open(cf.Dir, m)
	if err != nil {
		return err
	}
	if target == "compact" {
		info, err := c.Compact()
		if err != nil {
			return err
		}
		fmt.Printf("compacted %s: %d segments -> %d, %d records\n", cf.Dir, info.Before, info.After, info.Records)
		return nil
	}
	if flag.NArg() < 2 {
		return fmt.Errorf("usage: phasechar -corpus <dir> query stats|nearest|uniqueness|novelty [arg]")
	}
	req := corpus.QueryRequest{
		Op:     flag.Arg(1),
		K:      cf.TopK,
		Radius: cf.Radius,
		Probe:  cf.Probe,
	}
	// An unknown op flows through to Query, which names the valid ones.
	switch arg := flag.Arg(2); req.Op {
	case "nearest":
		req.Ref = arg
	case "uniqueness":
		req.Bench = arg
	case "novelty":
		req.Suite = arg
	}
	resp, err := c.Query(req)
	if err != nil {
		return err
	}
	return corpus.WriteResponse(os.Stdout, resp)
}

// ingestCorpus adds a completed run's phases to the -corpus database;
// without -corpus it is a no-op. Ingestion is keyed by the dataset
// hash, so re-running an already-ingested dataset changes nothing.
func ingestCorpus(env *experiments.Env, cf *cliobs.CorpusFlags, m *obs.Metrics, logf func(string, ...any)) error {
	if cf.Dir == "" {
		return nil
	}
	res, err := env.Result()
	if err != nil {
		return err
	}
	c, err := corpus.Open(cf.Dir, m)
	if err != nil {
		return err
	}
	info, err := c.IngestResult(res)
	if err != nil {
		return err
	}
	if logf != nil {
		if info.Skipped {
			logf("corpus: dataset %016x already in %s; ingest skipped", info.Dataset, cf.Dir)
		} else {
			logf("corpus: ingested %d intervals + %d centroids into %s (dataset %016x)",
				info.Intervals, info.Centroids, cf.Dir, info.Dataset)
		}
	}
	return nil
}
