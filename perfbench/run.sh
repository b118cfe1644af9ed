#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments (see perfbench/README.md):
#
#   bash perfbench/run.sh --workload fig8 --seed 1 --seconds 18 --trace 0
#
# Everything the build writes (Go build cache, binary, traces, job state)
# stays under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/bin/perfbench" .)
commit=none
if [ -d "$root/.git" ]; then
  commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)"
fi
cd "$root"
BENCH_COMMIT="$commit" exec "$out/bin/perfbench" "$@"
