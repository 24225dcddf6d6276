#!/bin/sh
# Profile the simulator itself (host wall clock, not simulated cycles).
#
# Usage:
#   dev/profile.sh [--shards N] [WORKLOAD ...]
#
# Runs the named workloads (default: a representative slow trio) through
# the benchmark runner and reports where the host time goes:
#
#   * with Linux `perf` installed: `perf record` + `perf report` over the
#     run, giving a per-function profile of the dispatch loop;
#   * without `perf` (containers, macOS): falls back to the runner's own
#     self-timing table (`--bench --time`), which attributes wall clock
#     per workload and per mechanism side — coarse, but enough to spot
#     which workload regressed before bisecting with smaller rosters.
#     The same table is saved as a versioned time-report envelope at
#     results/bench_time.json (older releases wrote ./bench_time.json).
#
# --shards N runs the roster across N worker processes (the CI
# configuration). Under perf, -g follows the forked workers, so the
# report covers the whole worker fleet; the fallback prints the parent's
# merged summary (per-workload wall columns are measured in the workers
# and still attributed per pair).
#
# POSIX sh; run from the repo root. Results land under /tmp/tce-profile.
set -eu

shards=1
case "${1:-}" in
--shards)
    shards="${2:?--shards needs a value}"
    shift 2
    ;;
--shards=*)
    shards="${1#--shards=}"
    shift
    ;;
esac
case "$shards" in
'' | *[!0-9]*)
    echo "profile.sh: --shards expects a positive integer, got '$shards'" >&2
    exit 2
    ;;
esac

workloads="${*:-splay mandreel typescript-ray}"
out=/tmp/tce-profile
mkdir -p "$out"

dune build bench/main.exe

exe=_build/default/bench/main.exe

# --shards 1 (the default) runs the roster serially in this process
mode="--shards $shards"

if command -v perf >/dev/null 2>&1; then
    echo "profiling with perf ($mode): $workloads"
    # shellcheck disable=SC2086  # workload names/mode are intentionally split
    perf record -g -o "$out/perf.data" -- "$exe" --bench $mode \
        --history "" --out "$out/profile_bench.json" $workloads
    perf report -i "$out/perf.data" --stdio | head -60
    echo "full profile: perf report -i $out/perf.data"
else
    echo "perf not found; falling back to the runner's self-timing table ($mode)"
    # shellcheck disable=SC2086
    "$exe" --bench --time $mode --history "" \
        --out "$out/profile_bench.json" $workloads | tee "$out/time_table.txt"
    echo "table saved to $out/time_table.txt"
fi
