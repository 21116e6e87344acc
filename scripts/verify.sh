#!/bin/sh
# Repo verification gate: build, vet, the full test suite, vet and
# smoke tests of the benchmark module, the race detector over every
# package (and 20 runs of the corpus's concurrent-query test at one and
# four procs), short fuzz runs over every binary decoder, the
# shard-worker/rerun-over-cache equivalence check on the quick pipeline, the
# crash-recovery gate (a cached rerun after kill -9 mid-characterize does
# not stall and exports the same bytes), the k-means pruning gate (the
# quick export's distance-evaluation count under a ceiling), the GA gate
# (the quick Table 2 selection and Figure 1 sweep byte-identical to
# checked-in goldens at two worker counts), the incremental append
# byte-identity gate, the distributed
# loopback gate (networked workers with injected faults and a mid-run
# worker kill), the workload-model round-trip gate (the roster exported
# as declarative model files and reloaded runs byte-identically, and the
# checked-in emerging-era suites load and analyze), and the
# characterization-service loopback gate (jobs over HTTP byte-identical
# to one-shot exports — including jobs shipping inline tenant models —
# cold and hot-warm, with backpressure and latency histograms), and the
# phase-corpus gate (a six-suite corpus built through the CLI answers
# queries byte-identically to the checked-in goldens — uniqueness and
# novelty in all but the rows they scanned, which may only fall — across
# worker counts, across compaction, and over the service front door).
# Run before every merge.
set -eu

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
WORKER_PIDS=""
cleanup() {
  # Force-kill and reap before removing the tree: a gracefully draining
  # service would otherwise still be writing cache files under $tmp
  # while rm -rf walks it.
  if [ -n "$WORKER_PIDS" ]; then
    # shellcheck disable=SC2086
    kill -9 $WORKER_PIDS 2>/dev/null || true
    # shellcheck disable=SC2086
    wait $WORKER_PIDS 2>/dev/null || true
  fi
  rm -rf "$tmp"
}
trap cleanup EXIT

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test ./... (tier-1)"
go test ./...

echo "== perfbench: go vet + go test (separate module)"
# The benchmark is its own module and calls the kernel APIs directly
# (trace batches, ILP and PPM replays), so the root build does not
# compile it: build and smoke-test it here so a break there fails the
# gate. Its smoke test also pins BENCHMARK.json to the program.
(cd perfbench && GOWORK=off go vet ./... && GOWORK=off go test ./...)

echo "== go test -race ./..."
go test -race -count=1 ./...

echo "== shardnet -race at pinned worker counts"
# The distributed invariant must hold at any compute parallelism; pin it
# at serial and at 4 workers explicitly.
SHARDNET_TEST_WORKERS=1 go test -race -count=1 ./internal/shardnet/
SHARDNET_TEST_WORKERS=4 go test -race -count=1 ./internal/shardnet/

echo "== corpus queries concurrent with ingest and compaction (-race)"
# Queries scan an index snapshot without the corpus lock: every answer
# must still equal some serial corpus state's, at one and four procs.
go test -race -cpu 1,4 -count 20 -run '^TestConcurrentQueriesMatchSerial$' ./internal/corpus/

echo "== fuzz decoders (${FUZZ_BUDGET:-2s} each)"
# Every decoder that reads bytes from disk or the network, and the
# corpus query front door: errors, never panics. FUZZ_BUDGET raises the
# per-target budget for deeper local runs.
while read -r target pkg; do
  go test -run='^$' -fuzz="^${target}\$" -fuzztime="${FUZZ_BUDGET:-2s}" "$pkg" > /dev/null
done <<'EOF'
FuzzDecodeMatrix ./internal/stats/
FuzzDecodePCA ./internal/stats/
FuzzDecodeResult ./internal/cluster/
FuzzShardArtifact ./internal/core/
FuzzSummaryArtifact ./internal/core/
FuzzTimelineArtifact ./internal/core/
FuzzBaselineManifest ./internal/core/
FuzzShardRequest ./internal/shardnet/
FuzzShardResponse ./internal/shardnet/
FuzzDecodeModels ./internal/bench/
FuzzCorpusSegment ./internal/corpus/
FuzzCorpusManifest ./internal/corpus/
FuzzCorpusQuery ./internal/corpus/
FuzzTraceReader ./internal/trace/
FuzzCacheEntry ./internal/fcache/
EOF

echo "== allocation gate (BenchmarkCharacterizeCached)"
# The cache-warm characterization path is pinned to a per-op allocation
# ceiling: a repeat is served from one dataset artifact in a few hundred
# allocs/op (a handful per decoded benchmark entry), and a regression
# back toward the historical ~7k allocs/op (one per interval-vector read)
# should fail the gate loudly. CHAR_CACHED_ALLOC_CEILING overrides the
# ceiling (e.g. for instrumented builds).
ALLOC_CEILING="${CHAR_CACHED_ALLOC_CEILING:-512}"
allocs="$(go test -run '^$' -bench 'BenchmarkCharacterizeCached$' -benchtime 2x -benchmem . |
  awk '/^BenchmarkCharacterizeCached/ { for (i = 1; i < NF; i++) if ($(i + 1) == "allocs/op") print $i }')"
if [ -z "$allocs" ]; then
  echo "allocation gate: BenchmarkCharacterizeCached produced no allocs/op figure" >&2
  exit 1
fi
if [ "$allocs" -gt "$ALLOC_CEILING" ]; then
  echo "allocation gate: BenchmarkCharacterizeCached allocates $allocs/op > ceiling $ALLOC_CEILING" >&2
  exit 1
fi
echo "allocation gate: $allocs allocs/op <= $ALLOC_CEILING"

echo "== shard workers + rerun-over-cache equivalence (quick pipeline)"
# The engine's load-bearing invariant, end to end through the CLI: after
# a 3-shard fleet of workers sharing one cache, a plain cached run must
# export byte-identically to the plain single-process run, and its report
# must prove it read the fleet's work rather than silently recomputing:
# it generated no interval and read one cached vector per row of its
# characterize span. A rerun over the same cache must then resume every
# stage, characterize included.
go build -o "$tmp/phasechar" ./cmd/phasechar
"$tmp/phasechar" -quick -quiet export > "$tmp/single.json"
for i in 0 1 2; do
  "$tmp/phasechar" -quick -quiet -cache "$tmp/cache" -shard "$i/3" shard > /dev/null
done
"$tmp/phasechar" -quick -quiet -cache "$tmp/cache" \
  -report "$tmp/shard_report.json" export > "$tmp/sharded.json"
cmp "$tmp/single.json" "$tmp/sharded.json"
python3 - "$tmp/shard_report.json" <<'EOF'
import json, sys

rep = json.load(open(sys.argv[1]))
c = rep["counters"]
rows = [s.get("rows", 0) for s in rep["spans"] if s["stage"] == "characterize"]
assert len(rows) == 1, f"want one characterize span, got {len(rows)}"
assert c.get("fcache.misses.vector", 0) == 0, f"run after the shard workers generated {c['fcache.misses.vector']} intervals"
hits = c.get("fcache.hits.vector", 0)
assert hits == rows[0], f"fcache.hits.vector = {hits}, want the characterize span's {rows[0]} rows"
print(f"shard gate: {hits} interval vectors read, none generated")
EOF
"$tmp/phasechar" -quick -quiet -cache "$tmp/cache" \
  -report "$tmp/rerun_report.json" export > "$tmp/resumed.json"
cmp "$tmp/single.json" "$tmp/resumed.json"
python3 - "$tmp/rerun_report.json" <<'EOF'
import json, sys

c = json.load(open(sys.argv[1]))["counters"]
assert c.get("fcache.misses.vector", 0) == 0, f"rerun generated {c['fcache.misses.vector']} intervals"
for stage in ("characterize", "pca", "scores", "kmeans", "prominent"):
    got = c.get(f"engine.resumed.{stage}", 0)
    assert got == 1, f"rerun resumed {stage} {got} times, want 1: {sorted(k for k in c if k.startswith('engine.'))}"
print("rerun gate: no interval generated; characterize, pca, scores, kmeans, prominent resumed")
EOF

echo "== crash-recovery gate (kill -9 mid-characterize, cached rerun)"
# A cached run killed mid-compute must cost its rerun only the work it
# lost: nothing the dead process left in the cache may stall the rerun,
# which must export the plain run's bytes well inside a minute (a quick
# run takes seconds). The victim dies once its first cache entry lands,
# while the dataset artifact it is computing is still in flight.
"$tmp/phasechar" -quick -quiet -cache "$tmp/kcache" export > /dev/null &
victim=$!
WORKER_PIDS="$WORKER_PIDS $victim"
tries=0
while [ -z "$(find "$tmp/kcache" -name '*.fc' 2>/dev/null | head -n 1)" ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 600 ] || ! kill -0 "$victim" 2>/dev/null; then
    echo "crash gate: the victim wrote no cache entry before it ended" >&2
    exit 1
  fi
  sleep 0.05
done
if ! kill -9 "$victim" 2>/dev/null; then
  echo "crash gate: the victim finished before it could be killed" >&2
  exit 1
fi
wait "$victim" 2>/dev/null || true
timeout 60 "$tmp/phasechar" -quick -quiet -cache "$tmp/kcache" export > "$tmp/crash_rerun.json"
cmp "$tmp/single.json" "$tmp/crash_rerun.json"
if [ -n "$(find "$tmp/kcache" -name '*.claim' | head -n 1)" ]; then
  echo "crash gate: the cache holds .claim files" >&2
  exit 1
fi
echo "crash gate: the rerun after kill -9 exported the plain run's bytes"

echo "== k-means pruning gate (quick export)"
# The pruned k-means (triangle-inequality seeding, per-group Lloyd
# bounds) must keep skipping work: the quick export's run report counts
# the row x center distance evaluations its Lloyd passes made, and a
# silent fall back to full scans (about 3.5x the ceiling) fails here the
# way the allocation gate catches allocation regressions. The ceiling
# sits ~10% above the measured 1,460,763.
KMEANS_EVAL_CEILING=1600000
"$tmp/phasechar" -quick -quiet -report "$tmp/kmeans_report.json" export > "$tmp/kmeans.json"
cmp "$tmp/single.json" "$tmp/kmeans.json"
python3 - "$tmp/kmeans_report.json" "$tmp/kmeans.json" "$KMEANS_EVAL_CEILING" <<'EOF'
import json, sys

rep = json.load(open(sys.argv[1]))
c = rep["counters"]
k = json.load(open(sys.argv[2]))["parameters"]["num_clusters"]
rows = next(s["rows"] for s in rep["spans"] if s["stage"] == "kmeans")
ceiling = int(sys.argv[3])
evals = c["kmeans.center_evals"]
full = (c["kmeans.lloyd_iters"] + c["kmeans.restarts"]) * rows * k
print(f"k-means pruning gate: {evals} center evals <= {ceiling}; "
      f"a full scan on every pass would make {full} ({evals / full:.1%})")
assert evals <= ceiling, f"kmeans.center_evals = {evals} > ceiling {ceiling}"
EOF

echo "== GA gate (quick table2 and fig1 against goldens)"
# The key-characteristic search end to end through the CLI: the quick
# Table 2 selection (genes, correlation, generation and evaluation
# counts) and the Figure 1 sweep, on stdout and in the -out CSVs, must
# match the checked-in goldens byte for byte at -workers 1 and 3. The
# goldens come from the fitness that recomputed every statistic per
# genome; the precomputed path must reproduce them exactly.
for w in 1 3; do
  "$tmp/phasechar" -quick -quiet -workers "$w" -out "$tmp/ga$w" table2 > "$tmp/ga_table2_$w.txt"
  "$tmp/phasechar" -quick -quiet -workers "$w" -out "$tmp/ga$w" fig1 > "$tmp/ga_fig1_$w.txt"
  cmp scripts/testdata/ga_quick_table2.txt "$tmp/ga_table2_$w.txt"
  cmp scripts/testdata/ga_quick_table2.csv "$tmp/ga$w/table2.csv"
  cmp scripts/testdata/ga_quick_fig1.txt "$tmp/ga_fig1_$w.txt"
  cmp scripts/testdata/ga_quick_fig1.csv "$tmp/ga$w/fig1.csv"
done
echo "GA gate: table2 and fig1 match their goldens at -workers 1 and 3"

echo "== workload-model round-trip gate"
# Suites as data, end to end through the CLI: the built-in roster
# exported as a declarative model file and reloaded via -models must run
# byte-identically to the built-in run — the codec loses nothing. The
# checked-in emerging-era suites must load, validate, and surface in the
# cross-era experiment.
"$tmp/phasechar" -export-models > "$tmp/models_std.json"
"$tmp/phasechar" -quick -quiet -models "$tmp/models_std.json" export > "$tmp/models_reloaded.json"
cmp "$tmp/single.json" "$tmp/models_reloaded.json"
"$tmp/phasechar" -quick -quiet -models models -clusters 80 -prominent 30 crossera > "$tmp/crossera.out"
if ! grep -q "BigData" "$tmp/crossera.out"; then
  echo "model gate: crossera output does not mention the BigData suite" >&2
  cat "$tmp/crossera.out" >&2
  exit 1
fi

echo "== incremental append gate (quick pipeline)"
# The append path's golden invariant, end to end through the CLI: a
# cached run over six suites, then a plain full-roster run over the same
# cache — which extends that baseline — must export byte-identically to
# the plain single-process run, and the run report must prove the delta
# characterize path actually ran (rather than silently recomputing cold).
"$tmp/phasechar" -quick -quiet -cache "$tmp/icache" \
  -suites BioPerf,BMW,MediaBenchII,SPECint2000,SPECfp2000,SPECint2006 export > /dev/null
"$tmp/phasechar" -quick -quiet -cache "$tmp/icache" \
  -report "$tmp/inc_report.json" export > "$tmp/incremental.json"
cmp "$tmp/single.json" "$tmp/incremental.json"
if ! grep -Fq '"engine.delta.characterize": 1' "$tmp/inc_report.json"; then
  echo "incremental gate: append run did not take the delta characterize path" >&2
  grep -F '"engine.' "$tmp/inc_report.json" >&2 || true
  exit 1
fi

echo "== distributed loopback gate (3 workers, injected faults, mid-run kill)"
# The same invariant across real process and network boundaries: three
# loopback shard servers, a fault schedule (a 503 then a corrupted frame
# on worker 0, injected latency on worker 2), and worker 1 killed while
# the run is in flight. The coordinator must retry, reassign and degrade
# as needed — and the export must still be byte-identical.
for i in 0 1 2; do
  "$tmp/phasechar" -quiet -addr 127.0.0.1:0 serve > "$tmp/worker$i.out" 2>&1 &
  WORKER_PIDS="$WORKER_PIDS $!"
done
addrs=""
for i in 0 1 2; do
  addr=""
  tries=0
  while [ -z "$addr" ]; do
    addr="$(sed -n 's|^phasechar: listening at http://||p' "$tmp/worker$i.out")"
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
      echo "worker $i never reported its address" >&2
      cat "$tmp/worker$i.out" >&2
      exit 1
    fi
    [ -z "$addr" ] && sleep 0.1
  done
  addrs="$addrs,$addr"
done
addrs="${addrs#,}"
victim="$(echo "$WORKER_PIDS" | awk '{print $2}')"
( sleep 1; kill "$victim" 2>/dev/null ) &
"$tmp/phasechar" -quick -quiet -cache "$tmp/dcache" \
  -workers-addr "$addrs" -rpc-retries 2 \
  -rpc-faults "0:5xx,corrupt;2:delay" \
  -report distributed_report.json export > "$tmp/distributed.json"
cmp "$tmp/single.json" "$tmp/distributed.json"

echo "== characterization service loopback gate"
# The service's contract, end to end through the CLI: a job submitted
# over HTTP must export byte-identically to the equivalent one-shot run
# — cold, through an append that extends the cold job's baseline, and
# again hot-warm from the cached stage artifacts — while the front door
# sheds load with 429s at queue capacity and reports per-endpoint
# latency percentiles in /metrics.
six="BioPerf,BMW,MediaBenchII,SPECint2000,SPECfp2000,SPECint2006"
"$tmp/phasechar" -quick -quiet -suites "$six" export > "$tmp/six.json"
"$tmp/phasechar" -cache "$tmp/scache" -addr 127.0.0.1:0 \
  -queue-depth 1 -job-workers 1 service > "$tmp/service.out" 2>&1 &
WORKER_PIDS="$WORKER_PIDS $!"
saddr=""
tries=0
while [ -z "$saddr" ]; do
  saddr="$(sed -n 's|^phasechar: characterization service at http://||p' "$tmp/service.out")"
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ]; then
    echo "service never reported its address" >&2
    cat "$tmp/service.out" >&2
    exit 1
  fi
  [ -z "$saddr" ] && sleep 0.1
done
# Cold six-suite job (becomes the baseline server-side).
"$tmp/phasechar" -server "http://$saddr" -tenant gate -quick -quiet \
  -suites "$six" submit > "$tmp/svc_six.json"
cmp "$tmp/six.json" "$tmp/svc_six.json"
# Append over the full roster, through the front door.
"$tmp/phasechar" -server "http://$saddr" -tenant gate -quick -quiet \
  submit > "$tmp/svc_full.json"
cmp "$tmp/single.json" "$tmp/svc_full.json"
# Hot-warm repeat: same job again, answered from cached artifacts —
# still byte-identical, and every one of its five stages resumed, none
# computed (the /metrics reads around it pin that).
curl -s "http://$saddr/metrics" > "$tmp/service_metrics_before_warm.json"
"$tmp/phasechar" -server "http://$saddr" -tenant gate -quick -quiet \
  -suites "$six" submit > "$tmp/svc_six_warm.json"
cmp "$tmp/six.json" "$tmp/svc_six_warm.json"
curl -s "http://$saddr/metrics" > "$tmp/service_metrics_after_warm.json"
python3 - "$tmp/service_metrics_before_warm.json" "$tmp/service_metrics_after_warm.json" <<'EOF'
import json, sys

before, after = (json.load(open(p))["counters"] for p in sys.argv[1:3])
delta = {k: after.get(k, 0) - before.get(k, 0)
         for k in ("engine.stages_resumed", "engine.stages_computed")}
assert delta["engine.stages_resumed"] == 5, f"hot-warm repeat: {delta}, want 5 stages resumed"
assert delta["engine.stages_computed"] == 0, f"hot-warm repeat: {delta}, want no stage computed"
print("service gate: hot-warm repeat resumed 5 stages, computed none")
EOF
# Inline tenant models: a job shipping the emerging-era suite inline
# must export byte-identically to the same roster run locally via
# -models (invalid models are covered by the serve tests: 400 at submit).
"$tmp/phasechar" -quick -quiet -models models -suites BigData \
  -clusters 40 -prominent 20 export > "$tmp/bigdata.json"
"$tmp/phasechar" -server "http://$saddr" -tenant gate -quick -quiet \
  -models models -suites BigData -clusters 40 -prominent 20 submit > "$tmp/svc_bigdata.json"
cmp "$tmp/bigdata.json" "$tmp/svc_bigdata.json"
# Saturation: with one worker pinned by a cold job and one queue slot,
# a burst of submissions must see at least one 429.
flood_codes=""
for i in 1 2 3 4 5 6; do
  flood_codes="$flood_codes $(curl -s -o /dev/null -w '%{http_code}' \
    -X POST -H 'X-Tenant: flood' -H 'Content-Type: application/json' \
    -d '{"preset":"quick","seed":7}' "http://$saddr/jobs")"
done
case "$flood_codes" in
  *429*) echo "service gate: backpressure observed ($flood_codes)" ;;
  *)
    echo "service gate: no 429 under queue saturation ($flood_codes)" >&2
    exit 1
    ;;
esac
curl -s "http://$saddr/metrics" > "$tmp/service_metrics.json"
python3 - "$tmp/service_metrics.json" <<'EOF'
import json, sys

rep = json.load(open(sys.argv[1]))
c = rep["counters"]
assert c.get("serve.admission_rejects", 0) > 0, "no admission rejects recorded"
assert c.get("serve.jobs_done", 0) >= 3, f"jobs_done = {c.get('serve.jobs_done')}"
# Only the full-roster append extends a baseline; every other job is
# cold or resumes its own artifacts.
assert c.get("engine.delta.characterize", 0) == 1, \
    f"engine.delta.characterize = {c.get('engine.delta.characterize')}, want 1 (the append job)"
h = rep.get("histograms", {})
post = h.get("serve.http.post_jobs")
assert post and post["count"] > 0, f"missing post_jobs histogram: {sorted(h)}"
for k in ("p50_seconds", "p95_seconds", "p99_seconds"):
    assert k in post, f"{k} missing from histogram summary"
assert post["p50_seconds"] <= post["p95_seconds"] <= post["p99_seconds"] <= post["max_seconds"] + 1e-12
print("service gate: post_jobs p50/p95/p99 =", post["p50_seconds"], post["p95_seconds"], post["p99_seconds"])
EOF

echo "== phase corpus gate (six-suite corpus, online queries)"
# The corpus contract end to end: a six-suite quick run ingested into a
# fresh corpus must answer queries byte-identically to the checked-in
# goldens; re-ingesting the same run is a no-op; a corpus built at
# -workers 1 answers identically; compaction changes no answer; the
# corpus.* counters surface in the run report; and the service's
# POST /corpus/query returns the same bytes as the CLI.
corpus="$tmp/corpus"
"$tmp/phasechar" -quick -quiet -suites "$six" -corpus "$corpus" \
  -report "$tmp/corpus_report.json" export > /dev/null
"$tmp/phasechar" -corpus "$corpus" query stats > "$tmp/corpus_stats.json"
cmp scripts/testdata/corpus_six_stats.json "$tmp/corpus_stats.json"
"$tmp/phasechar" -corpus "$corpus" -topk 3 query nearest 'BioPerf/blast#3' > "$tmp/corpus_near.json"
cmp scripts/testdata/corpus_six_nearest.json "$tmp/corpus_near.json"
# Idempotent re-ingest: an equivalent rerun adds nothing.
"$tmp/phasechar" -quick -quiet -suites "$six" -corpus "$corpus" export > /dev/null
"$tmp/phasechar" -corpus "$corpus" query stats | cmp scripts/testdata/corpus_six_stats.json -
# Worker-count invariance: the corpus is the same corpus at any -workers.
"$tmp/phasechar" -quick -quiet -suites "$six" -workers 1 -corpus "$tmp/corpus_w1" export > /dev/null
"$tmp/phasechar" -corpus "$tmp/corpus_w1" -topk 3 query nearest 'BioPerf/blast#3' |
  cmp scripts/testdata/corpus_six_nearest.json -
# A second ingest (the emerging-era suite) then compaction: two segments
# merge into one and every answer survives byte-identically.
"$tmp/phasechar" -quick -quiet -models models -suites BigData \
  -clusters 40 -prominent 20 -corpus "$corpus" export > /dev/null
"$tmp/phasechar" -corpus "$corpus" -topk 5 query nearest 'BioPerf/blast#3' > "$tmp/corpus_pre_near.json"
# The radius queries on the seven-suite corpus, at the default radius
# and at one where some rows have a foreign neighbor, against goldens
# the exact full scan wrote: every byte but the "scanned" line must
# match, and "scanned" (the rows the pruned path visited) may not
# exceed the exact scan's.
radius_queries() {
  "$tmp/phasechar" -corpus "$corpus" query uniqueness BioPerf/blast > "$1/uniqueness.json"
  "$tmp/phasechar" -corpus "$corpus" query novelty BigData > "$1/novelty.json"
  "$tmp/phasechar" -corpus "$corpus" -radius 2 query uniqueness BioPerf/blast > "$1/uniqueness_r2.json"
  "$tmp/phasechar" -corpus "$corpus" -radius 6 query novelty BigData > "$1/novelty_r6.json"
}
mkdir "$tmp/radius_pre" "$tmp/radius_post"
radius_queries "$tmp/radius_pre"
python3 - scripts/testdata "$tmp/radius_pre" <<'EOF'
import json, os, re, sys

def split(path):
    text = open(path).read()
    return re.sub(r'\n  "scanned": [0-9]+,\n', "\n", text, count=1), json.loads(text)["scanned"]

golden_dir, got_dir = sys.argv[1:3]
for name in ("uniqueness", "novelty", "uniqueness_r2", "novelty_r6"):
    want, want_scanned = split(os.path.join(golden_dir, f"corpus_seven_{name}.json"))
    got, got_scanned = split(os.path.join(got_dir, f"{name}.json"))
    assert got == want, f"{name}: the answer differs from its golden:\n{got}\nvs\n{want}"
    assert got_scanned <= want_scanned, f"{name}: scanned {got_scanned} rows, the exact scan {want_scanned}"
    print(f"radius gate: {name} matches its golden, scanning {got_scanned} of {want_scanned} rows")
EOF
"$tmp/phasechar" -corpus "$corpus" compact
"$tmp/phasechar" -corpus "$corpus" -topk 5 query nearest 'BioPerf/blast#3' | cmp "$tmp/corpus_pre_near.json" -
radius_queries "$tmp/radius_post"
for f in uniqueness novelty uniqueness_r2 novelty_r6; do
  cmp "$tmp/radius_pre/$f.json" "$tmp/radius_post/$f.json"
done
# The run report carries the corpus counters.
python3 - "$tmp/corpus_report.json" <<'EOF'
import json, sys

c = json.load(open(sys.argv[1]))["counters"]
assert c.get("corpus.ingested", 0) > 0, f"no corpus.ingested in report: {sorted(c)}"
assert c.get("corpus.segments", 0) == 1, f"corpus.segments = {c.get('corpus.segments')}"
print("corpus gate: ingested", c["corpus.ingested"], "records into", c["corpus.segments"], "segment")
EOF
# The service answers the same question with the same bytes.
"$tmp/phasechar" -cache "$tmp/qcache" -corpus "$corpus" -addr 127.0.0.1:0 \
  service > "$tmp/corpus_service.out" 2>&1 &
WORKER_PIDS="$WORKER_PIDS $!"
qaddr=""
tries=0
while [ -z "$qaddr" ]; do
  qaddr="$(sed -n 's|^phasechar: characterization service at http://||p' "$tmp/corpus_service.out")"
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ]; then
    echo "corpus service never reported its address" >&2
    cat "$tmp/corpus_service.out" >&2
    exit 1
  fi
  [ -z "$qaddr" ] && sleep 0.1
done
curl -s -X POST -H 'Content-Type: application/json' \
  -d '{"op":"nearest","ref":"BioPerf/blast#3","k":5}' \
  "http://$qaddr/corpus/query" | cmp "$tmp/corpus_pre_near.json" -
echo "corpus gate: CLI and service answers byte-identical"

echo "verify: OK"
