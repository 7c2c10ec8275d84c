#!/usr/bin/env bash
# Build the costbench harness (standalone Release CMake project in
# build-costbench/) and run it. Build output goes to build-costbench/*.log
# and is shown only on failure, so stdout carries only benchmark output.
#
#   bench/costbench/run.sh                           all workloads, untraced
#   bench/costbench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                    one run; the last stdout
#                                                    line is its JSON result
#   bench/costbench/run.sh --trace [--repeat N]      untraced + traced runs
#                                                    (N pairs), with
#                                                    trace_overhead_frac
#   bench/costbench/run.sh --repeat N [--seed-step K]
#                                                    N runs per workload:
#                                                    median, IQR and spread
#                                                    against BENCHMARK.json
#   bench/costbench/run.sh --smoke                   every workload and check
#                                                    at scale 0.05, 2 s windows
#   bench/costbench/run.sh --write-golden [--workload W]
#                                                    rewrite golden/*.txt
set -euo pipefail
cd "$(dirname "$0")/../.."

build=build-costbench
mkdir -p "$build"
if ! cmake -S bench/costbench -B "$build" >"$build/configure.log" 2>&1 ||
   ! cmake --build "$build" -j "$(nproc)" >"$build/build.log" 2>&1; then
  cat "$build"/*.log >&2
  echo "costbench: build failed" >&2
  exit 1
fi
exec python3 bench/costbench/costbench.py --bin "$build/costbench" "$@"
