#!/usr/bin/env bash
# Builds bvl_bench from the sources of the checkout this script lives in
# (the first run configures and compiles; later runs are an up-to-date
# check) and runs one workload:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds N --trace 0|1
#
# Build output goes to stderr, so the harness's JSON result stays the
# last line of stdout. Any build failure exits non-zero before a result
# is printed.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build-bench"
jobs="$(nproc)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi

if [ ! -f "$build/Makefile" ]; then
  cmake -S "$root/benchmark" -B "$build" >&2
fi
cmake --build "$build" --target bvl_bench -j "$jobs" >&2
exec "$build/bvl_bench" "$@"
