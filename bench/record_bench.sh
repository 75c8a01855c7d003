#!/usr/bin/env bash
# Perf-trajectory recorder: writes BENCH_kernels.json, the repo's committed
# record of kernel throughput on a known host, so kernel/packing changes in
# later PRs diff against measured history instead of folklore.
#
# Sweeps:
#   * bench_micro_kernels --quick (its internal variant axis already
#     re-runs each case under the scalar tier and the dispatched tier);
#   * bench_parallel_scaling --quick (end-to-end engine throughput) at
#     --kernels=auto and --kernels=scalar;
#   * bench_fig12_dist_papers --quick --json at --mode=bsp AND
#     --mode=async (distributed scaling sweep): throughput, wire traffic,
#     rank_memory_bytes — the PER-RANK resident footprint (owned rows +
#     halo), which must shrink as the partition count grows — and the
#     bsp-vs-async stall split (barrier_wait_sec vs idle_sec/epoch_sec),
#     the committed record that the barrier-free epoch models below the
#     BSP total for the same stream (docs/async.md);
#   * bench_recovery --quick --json at --mode=bsp AND --mode=async
#     (docs/fault_tolerance.md): the periodic checkpoint tax
#     (checkpoint_write_sec, checkpoint_bytes) and the recovery cost
#     (restore_sec + recovery_replay_sec), each row bit-verifying the
#     recovered embeddings against the uninterrupted run ("exact":true).
#
# Output is one JSON document: a header fingerprinting the run (git commit,
# the build dir's CMAKE_BUILD_TYPE and CMAKE_CXX_FLAGS, the machine's
# dispatched kernel tier, host info), then "runs": the JSON-lines rows
# scraped verbatim from the benches. Rerun after kernel work and commit
# the diff:
#
#   ./bench/record_bench.sh            # writes BENCH_kernels.json
#   ./bench/record_bench.sh out.json   # alternate output path
#   BUILD_DIR=build-foo ./bench/record_bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

build="${BUILD_DIR:-build}"
out="${1:-BENCH_kernels.json}"

for bin in bench_micro_kernels bench_parallel_scaling \
           bench_fig12_dist_papers bench_recovery; do
  if [[ ! -x "$build/$bin" ]]; then
    echo "record_bench.sh: $build/$bin not found — build the benches first" \
         "(cmake -B $build -S . && cmake --build $build -j)" >&2
    exit 1
  fi
done

rows_file="$(mktemp)"
diag_file="$(mktemp)"
trap 'rm -f "$rows_file" "$diag_file"' EXIT

"$build/bench_micro_kernels" --quick >>"$rows_file" 2>>"$diag_file"

for kernels in auto scalar; do
  "$build/bench_parallel_scaling" --quick --kernels="$kernels" \
    >>"$rows_file" 2>>"$diag_file"
done

for mode in bsp async; do
  "$build/bench_fig12_dist_papers" --quick --json --mode="$mode" \
    >>"$rows_file" 2>>"$diag_file"
done

for mode in bsp async; do
  "$build/bench_recovery" --quick --json --mode="$mode" \
    >>"$rows_file" 2>>"$diag_file"
done

# micro_kernels prints "dispatched tier=<isa>" on stderr; that is the
# machine's auto-dispatch answer (avx512/avx2/scalar).
tier="$(sed -n 's/.*dispatched tier=\([a-z0-9]*\).*/\1/p' "$diag_file" \
        | head -1)"
cpu="$(sed -n 's/^model name[^:]*: //p' /proc/cpuinfo 2>/dev/null | head -1)"
compiler="$(${CXX:-g++} --version 2>/dev/null | head -1)"
# "-dirty": recorded from a tree with uncommitted changes on top of HEAD.
commit="$(git rev-parse --short HEAD 2>/dev/null || true)"
if [[ -n "$commit" ]] && ! git diff --quiet HEAD 2>/dev/null; then
  commit="$commit-dirty"
fi
# Build settings of the binaries actually run, from the build dir's cache.
cache_value() {
  sed -n "s/^$1:[A-Z]*=//p" "$build/CMakeCache.txt" 2>/dev/null | head -1
}
# An empty cached build type means Release: CMakeLists.txt defaults it.
build_type="$(cache_value CMAKE_BUILD_TYPE)"
build_type="${build_type:-Release}"
cxx_flags="$(cache_value CMAKE_CXX_FLAGS)"

{
  printf '{\n'
  printf '  "recorded_utc": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
  printf '  "git_commit": "%s",\n' "${commit:-unknown}"
  printf '  "build": {"type": "%s", "cxx_flags": "%s"},\n' \
         "$build_type" "$cxx_flags"
  printf '  "dispatched_tier": "%s",\n' "${tier:-unknown}"
  printf '  "host": {"cpu": "%s", "nproc": %s, "compiler": "%s"},\n' \
         "${cpu:-unknown}" "$(nproc)" "${compiler:-unknown}"
  printf '  "runs": [\n'
  sed '$!s/$/,/; s/^/    /' "$rows_file"
  printf '  ]\n}\n'
} >"$out"

count="$(wc -l <"$rows_file")"
echo "record_bench.sh: wrote $out ($count runs, tier=${tier:-unknown})"
