#!/bin/sh
# Benchmark the parallelized analysis stages and record the numbers in
# BENCH_analysis.json at the repo root, plus an instrumented quick-pipeline
# run report (stage spans + cache/worker counters) in
# BENCH_analysis_report.json beside it.
#
# Usage: scripts/bench_analysis.sh [benchtime]
#
# The recorded benchmarks are the parallel kernels introduced with the
# worker-pool refactor (k-means restarts/assignment on uniform noise and
# on the clustered warm-reanalyze shape, GA fitness batches on a
# synthetic matrix and, in the same benchmark's prominent/workers=N
# rows, the pipeline's 12-key search over a real prominent-phase matrix,
# the GA fitness's two hot steps on their own — BenchmarkJacobiEigen's
# lockstep chunks of four 12x12 blocks and one 69x69 decomposition, and
# BenchmarkPairwiseDistances over 100 rows of 3 and 12 rescaled columns
# — SelectK sweeps) plus the end-to-end pipeline and the GA sweep figure,
# each at workers=1 and workers=GOMAXPROCS (the sub-benchmarks collapse
# to a single workers=1 entry on single-core machines), and the
# measurement kernel itself: BenchmarkCharacterize (cold generate+measure,
# ns/instruction and instructions/s) and BenchmarkCharacterizeCached (the
# same run served from the cache's whole-dataset artifact), and the
# append path: BenchmarkCharacterizeAppend prices a one-benchmark append
# onto a cached baseline (delta characterize + exact PCA and k-means
# refit) against the cold full-roster control as an interleaved pair,
# and BenchmarkCorpusQuery prices the phase corpus's nearest (exact and
# probed), uniqueness and novelty queries on 11,550 rows, the last two
# also issued from GOMAXPROCS goroutines at once. All of them
# produce byte-identical results at any worker count and cache state,
# so the comparison is pure wall-clock.
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${1:-2x}"
OUT="BENCH_analysis.json"
RAW="$(mktemp)"
PREV="$(mktemp)"
trap 'rm -f "$RAW" "$PREV"' EXIT

# Keep the previous recorded numbers so the refresh can print paired
# old/new deltas at the end.
[ -f "$OUT" ] && cp "$OUT" "$PREV"

go test -run '^$' \
    -bench 'BenchmarkKMeansParallel|BenchmarkGAFitnessParallel|BenchmarkJacobiEigen|BenchmarkPairwiseDistances|BenchmarkSelectKSweep|BenchmarkFullPipeline$|BenchmarkFig1GASweep|BenchmarkCharacterize$|BenchmarkCharacterizeCached$|BenchmarkCharacterizeAppend|BenchmarkCorpusQuery' \
    -benchtime "$BENCHTIME" -benchmem . | tee "$RAW"

awk -v benchtime="$BENCHTIME" '
/^goos:/    { goos = $2 }
/^goarch:/  { goarch = $2 }
/^cpu:/     { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip the -GOMAXPROCS suffix
    n = $2
    ns = $3
    extras = ""
    # Fields arrive as value/unit pairs after "ns/op".
    for (i = 5; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        gsub(/"/, "", unit)
        extras = extras sprintf(", \"%s\": %s", unit, $i)
    }
    rows[++count] = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s%s}",
                            name, n, ns, extras)
}
END {
    printf "{\n"
    printf "  \"goos\": \"%s\",\n", goos
    printf "  \"goarch\": \"%s\",\n", goarch
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"notes\": \"BenchmarkCharacterize is the cold generate+measure kernel; BenchmarkCharacterizeCached is the same run served warm from the whole-dataset cache artifact (one shard-kind entry, ~290 allocs/op). Against the pre-kernel tree (commit ff7388c), interleaved paired binaries on this shared vCPU measured: KMeansParallel/workers=1 paired-median 3.3x (range 3.1-3.4x; AVX2 column-scan kernel + pooled buffers + bounded Lloyd passes), Fig1GASweep paired-median 4.7x (range 4.1-6.7x; then including an in-process dataset memo, since removed, that served repeated iterations without the trace substrate; ~22%% Jacobi now flat+workspaced, GA fitness on pooled PCA workspaces), CharacterizeCached ~55x ns/op with that memo (2.06 MB -> 19 kB, 16334 -> 2 allocs/op; the dataset artifact that replaced it reads ~1.2 ms and ~290 allocs/op). Fig1 decomposition without the memo: ~65%% trace substrate, ~22%% JacobiEigen. BenchmarkKMeansParallel/clustered/workers=N runs the shape the pipeline clusters (11,550 x 9 Gaussian blobs, k = 300, 3 restarts, 60 iterations) and reports center-evals/op, the row x center distance evaluations left by the pruned k-means (triangle-inequality seeding, one Lloyd lower bound per 32-center group); the workers=N rows cluster uniform noise, which has no structure to prune. BenchmarkCharacterizeAppend/{cold,incremental} is an interleaved pair: incremental copies an N-1 baseline cache into a fresh directory off the clock, then times a true one-benchmark append (delta characterize + exact PCA and k-means refit); it asserts one delta stage and vector-misses equal to the 8 unique sampled intervals of mcf, and reports reused-rows, so a silent fallback to the cold path cannot pass as a speedup. BenchmarkGAFitnessParallel/prominent/workers=N runs the 12-key GA of the pipeline (default configuration) over the 100 x 69 prominent-phase matrix of a small pipeline run; the workers=N rows search a synthetic five-pattern matrix. The fitness standardizes the columns, builds their covariance and the reference Pearson side once per fitness and gathers the block of each genome from them, bit-identical to recomputing per genome; against the per-genome recompute, 10 interleaved pairs of test binaries measured prominent/workers=1 at a paired-median 381 -> 229 ms/op (1.67x, 10/10 pairs; 5,298 -> 8,830 evals/s). Each worker task now scores a chunk of up to four genomes: their 12x12 Jacobi decompositions run in lockstep (each lane computes its rotation parameters before any lane rotates, with the sign of t applied without a branch, and rows rotate through an AVX2 kernel), their distances run through an AVX2 distance-row kernel over the transposed scores, and their pair-order and Pearson sums interleave, all bit-identical to one genome at a time; against the one-at-a-time scalar fitness, 10 interleaved pairs of test binaries (-test.cpu 2, -test.benchtime 5x, alternating which side runs first) measured prominent/workers=1 at a paired-median 160.3 -> 98.0 ms/op (1.61x, range 1.32-2.02x, 10/10 pairs; 12,592 -> 20,593 evals/s). BenchmarkJacobiEigen/chunks/12x12 runs stats.SubsetPCAs on one chunk of four 12-column genomes per op, and /69x69 the full covariance of the prominent matrix through JacobiEigen; BenchmarkPairwiseDistances/k=N times PairwiseDistancesInto on 100 rows of N rescaled columns. BenchmarkCorpusQuery runs 11,550 rows of uniform noise (77 benchmarks x 150, 69 columns): nearest-exact scans every row, nearest-probed 8 of the 107 IVF lists, and uniqueness (150 query rows) and novelty (1,650) visit per row only the lists whose triangle-inequality bound |q - center| - list radius does not exceed the radius plus a round-off margin, testing their rows with the exact scan bits, so their answers are the full scan answers. rows/s counts the rows each query visited (its scanned), not the corpus rows. Uniform noise leaves no list tight, the hard case for the bound; against the full scan, 6 interleaved pairs of test binaries (5 iterations each) measured uniqueness at a paired median of 59.2 -> 15.1 ms/op (3.96x, 6/6 pairs, 24%% of the rows visited) and novelty 658 -> 307 ms/op (2.08x, 6/6, 35%% visited). parallel-uniqueness and parallel-novelty issue the same queries from GOMAXPROCS goroutines (b.RunParallel) on the same corpus; queries scan an immutable index snapshot outside the corpus lock and exclude rows by integer key, and against the previous code, which scanned under the lock and excluded rows by string, 10 interleaved pairs of test binaries (10 iterations, -cpu 2) measured parallel-uniqueness 14.3 -> 5.5 ms/op (2.65x, 10/10), parallel-novelty 319 -> 93 ms/op (3.56x, 10/10), and serial uniqueness 13.5 -> 9.6 ms/op (1.45x, 10/10) and novelty 310 -> 199 ms/op (1.61x, 10/10) from the integer keys alone. All paths stay byte-identical at every worker count; the asm and generic column kernels are bit-identical by construction (serial per-center sums, lanes across centers).\",\n"
    printf "  \"benchmarks\": [\n"
    for (i = 1; i <= count; i++)
        printf "%s%s\n", rows[i], (i < count ? "," : "")
    printf "  ]\n"
    printf "}\n"
}' "$RAW" > "$OUT"

echo "wrote $OUT"

# Paired old/new deltas against the previously recorded numbers: one
# line per benchmark present in both files. Ratios > 1 are speedups.
# These are same-machine but not interleaved runs — treat them as a
# smoke signal and use interleaved paired binaries for publishable
# comparisons (see the notes field).
if [ -s "$PREV" ]; then
    echo "== deltas vs previous $OUT"
    awk '
    /"name":/ {
        name = $0; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
        ns = $0; sub(/.*"ns_per_op": /, "", ns); sub(/[^0-9].*/, "", ns)
        if (NR == FNR) { old[name] = ns }
        else if (name in old && ns > 0)
            printf "  %-45s %14.0f -> %14.0f ns/op  (%.2fx)\n", name, old[name], ns, old[name] / ns
    }' "$PREV" "$OUT"
fi

# Capture a run report for the same machine: where the quick pipeline's
# wall time actually goes (per-stage spans, worker-pool and cache
# counters). The pipeline output itself is discarded — only the report
# matters here.
REPORT="BENCH_analysis_report.json"
go run ./cmd/phasechar -quick -quiet -report "$REPORT" export > /dev/null
echo "wrote $REPORT"
