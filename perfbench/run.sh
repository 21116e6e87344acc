#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload cold-export --seed 1 --seconds 20 --trace 0
#
# Build outputs (binary, Go build cache, trace files) stay in
# .bench_build at the checkout root. The benchmark imports the repo's
# packages through the replace directive in perfbench/go.mod, so a
# directory holding only perfbench/ fails to build and exits nonzero.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -root "$root" -out "$build" "$@"
