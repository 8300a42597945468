#!/usr/bin/env bash
# Reachability gate for src/: every out-of-line bvl:: function that an
# object file of src/ defines must end up in at least one program, or
# be on tools/reachable_allowlist.txt with the test that needs it. Each
# allowlist line is an `nm -C` name, then `#` and the reason, naming
# the test that compares against the function or builds inputs with it.
#
#   tools/check_reachable.sh [BUILD_DIR]      (default: build-reach)
#
# One tree configured from benchmark/ holds all eleven programs:
# bvl_bench, bvl_repro, the five benches and the four examples. They
# are built at -O0 with -ffunction-sections -fdata-sections and linked
# with --gc-sections, so a function survives in a program only if the
# program calls it. The check takes the programs' demangled (nm -C)
# symbol names away from the T symbols of the src/ objects. It fails,
# naming each function, on an unreached function that is not on the
# allowlist, and on an allowlist line whose function is gone or is now
# reached. Header-inline functions are out of its sight.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${1:-$root/build-reach}"
allowlist="$root/tools/reachable_allowlist.txt"
benches=(bvl_repro bench_sched_casestudy bench_mix_racks bench_fault_sweep bench_event_queue
         bench_engine_micro)
examples=(quickstart datacenter_advisor accelerator_study mapreduce_wordcount)

cmake -S "$root/benchmark" -B "$build" \
  -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
  -DCMAKE_CXX_FLAGS_RELEASE=-O0 \
  -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections >/dev/null
if ! cmake --build "$build" -j"$(nproc)" --target bvl_bench "${benches[@]}" "${examples[@]}" \
    >"$build/check_reachable.log" 2>&1; then
  cat "$build/check_reachable.log" >&2
  exit 1
fi

programs=("$build/bvl_bench")
for p in "${benches[@]}"; do programs+=("$build/repo/bench/$p"); done
for p in "${examples[@]}"; do programs+=("$build/repo/examples/$p"); done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

nm -C "${programs[@]}" | sed -E 's/^[0-9a-f]* *[A-Za-z] //' | sort -u >"$tmp/reached"
find "$build/repo/src" -name '*.o' | sort | while read -r obj; do
  nm -C --defined-only "$obj" | sed -nE "s|^[0-9a-f]+ T (bvl::.*)$|\1\t${obj#"$build/repo/"}|p"
done | sort -u >"$tmp/defined"
cut -f1 "$tmp/defined" | sort -u >"$tmp/defined_names"
comm -23 "$tmp/defined_names" "$tmp/reached" >"$tmp/unreached"

status=0
grep -vE '^(#|[[:space:]]*$)' "$allowlist" >"$tmp/lines" || true
if grep -v '#[[:space:]]*[^[:space:]]' "$tmp/lines" >"$tmp/bare"; then
  sed 's/^/check_reachable: allowlist line without a reason: /' "$tmp/bare" >&2
  status=1
fi
sed -E 's/[[:space:]]*#.*$//' "$tmp/lines" | sort -u >"$tmp/allowed"

while IFS= read -r name; do
  obj="$(awk -F'\t' -v n="$name" '$1 == n { print $2; exit }' "$tmp/defined")"
  echo "check_reachable: no program reaches $name ($obj)" >&2
  status=1
done < <(comm -23 "$tmp/unreached" "$tmp/allowed")

while IFS= read -r name; do
  if grep -qxF "$name" "$tmp/defined_names"; then
    echo "check_reachable: stale allowlist line, now reached: $name" >&2
  else
    echo "check_reachable: stale allowlist line, no longer defined in src/: $name" >&2
  fi
  status=1
done < <(comm -13 "$tmp/unreached" "$tmp/allowed")

if [ "$status" -eq 0 ]; then
  echo "check_reachable: $(wc -l <"$tmp/defined_names") functions defined in src/;" \
    "$(wc -l <"$tmp/unreached") unreached, each on the allowlist"
fi
exit "$status"
