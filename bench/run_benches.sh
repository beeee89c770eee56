#!/usr/bin/env bash
# Records the substrate micro-benchmark point (BENCH_micro.json) from a
# Release build, holds the armed profiler to its retention bar, and writes
# the measured fault-activation summary of a short traced campaign
# (BENCH_activation.json). Campaign-level timing lives in bench/e2e.
#
# Usage: bench/run_benches.sh [build-dir] [out.json] [extra benchmark args...]
set -euo pipefail

BUILD_DIR=${1:-build}
OUT=${2:-BENCH_micro.json}
ACT_OUT=${ACT_OUT:-BENCH_activation.json}
[ $# -ge 1 ] && shift
[ $# -ge 1 ] && shift

# Refuse to record trajectory points from anything but a Release build.
# The committed BENCH_*.json are compared across revisions; a Debug (or
# unset-type) build skews every number 5-20x and poisons the trajectory.
# Note the google-benchmark context's own "library_build_type" reports how
# the *library* was built (the distro package says "debug"), not this
# project — so the guard reads the project's CMakeCache.txt instead, and we
# inject an explicit build_type context key the micro schema checks.
if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  echo "error: $BUILD_DIR/CMakeCache.txt not found — configure first:" \
       "cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release" >&2
  exit 1
fi
BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt")
if [ "$BUILD_TYPE" != "Release" ]; then
  echo "error: $BUILD_DIR is configured as '${BUILD_TYPE:-<empty>}', not" \
       "Release — benchmark numbers from it are not comparable." >&2
  echo "  reconfigure: cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release" \
       "&& cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

for bin in bench/micro_substrate bench/table5_campaign tools/json_check; do
  if [ ! -x "$BUILD_DIR/$bin" ]; then
    echo "error: $BUILD_DIR/$bin not built" \
         "(cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release &&" \
         "cmake --build $BUILD_DIR -j)" >&2
    exit 1
  fi
done

# Five repetitions per benchmark in random interleaved order, recorded as
# aggregates: on a shared host one pass moves by 20-30% between identical
# configurations, and a load shift between two benchmarks' back-to-back
# repetitions would move their ratio (the bar below) as much.
"$BUILD_DIR/bench/micro_substrate" \
  --benchmark_repetitions=5 --benchmark_enable_random_interleaving=true \
  --benchmark_report_aggregates_only=true \
  --benchmark_context=build_type=Release \
  --benchmark_out="$OUT" --benchmark_out_format=json "$@"

# Acceptance bar: the armed sampler (stride 4096) must retain >= 80% of the
# disarmed dispatch rate: the median `retention` counter of
# BM_VmDispatchProfiledPaired, which times both in alternating pairs on one
# machine.
awk '
  /"name":/ { name = $0; sub(/.*"name": "/, "", name); sub(/".*/, "", name) }
  /"retention":/ && name == "BM_VmDispatchProfiledPaired/100000_median" {
    r = $0; sub(/.*"retention": /, "", r); sub(/,.*/, "", r)
  }
  END {
    if (r == "") {
      print "error: BM_VmDispatchProfiledPaired/100000_median retention" \
            " missing from the run" > "/dev/stderr"
      exit 1
    }
    if (r + 0 < 0.80) {
      printf "error: armed profiler retains only %.1f%% of dispatch rate" \
             " (bar: 80%%)\n", r * 100 > "/dev/stderr"
      exit 1
    }
    printf "armed profiler retains %.1f%% of dispatch rate (bar: 80%%)\n", \
           r * 100 > "/dev/stderr"
  }' "$OUT"

# Short traced campaign: wide stride + compressed exposure/baseline windows
# keep this to a few seconds while still exercising every fault type.
"$BUILD_DIR/bench/table5_campaign" --quick --scale 0.05 --baseline-ms 2000 \
  --activation-json "$ACT_OUT" > /dev/null
echo "activation summary written to $ACT_OUT" >&2

"$BUILD_DIR/tools/json_check" --schema micro "$OUT"
"$BUILD_DIR/tools/json_check" "$ACT_OUT"
