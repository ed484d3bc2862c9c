#!/usr/bin/env bash
# Builds chaos_bench from this checkout's sources (a no-op after the first
# call) and runs it with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload mesh53k_reuse --seed 1234 --seconds 16 --trace 0
#
# Build output goes to stderr, so the last line of stdout is chaos_bench's
# JSON result. The build tree is .bench_build/benchmark under the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(cd "$here/.." && pwd)/.bench_build/benchmark"

generator=()
if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target chaos_bench -j 4 >&2

# --trace 1 writes its Chrome trace next to the binary unless told otherwise.
exec "$build/chaos_bench" "$@"
