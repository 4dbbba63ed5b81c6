#!/usr/bin/env bash
# Builds the concurrency-sensitive targets with ThreadSanitizer (the
# VAOLIB_SANITIZE=thread CMake option) in a separate build tree and runs the
# tests that exercise the thread pool, the parallel helpers, the sharded
# bounds cache, the executors' parallel coarse phase (engine_test checks
# that its calibration account is thread-count invariant), and selection
# row quarantine on the pooled StepAll notch at threads > 1 (chaos_test,
# selection_pin_test), and the PDE profile cache's single-flight solves
# under InvokeAll and StepAll at threads 2 and 3 (parallel_test
# ProfileCacheWorkIsThreadCountInvariant, vao_test PdeProfileCacheTest),
# and the process-wide estimator-calibration account under two recording
# threads (trace_test CalibrationTest.ConcurrentSamplesAddUpExactly).
#
# Usage:
#   scripts/check_tsan.sh [build_dir]          # default build-tsan/
#   VAOLIB_SANITIZE=address scripts/check_tsan.sh build-asan
#
# Exits non-zero on any build failure, test failure, or sanitizer report.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
sanitizer="${VAOLIB_SANITIZE:-thread}"
build_dir="${1:-${repo_root}/build-tsan}"

targets=(thread_pool_test parallel_test vao_test extensions_test obs_test
         engine_test chaos_test selection_pin_test trace_test)

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DVAOLIB_SANITIZE="${sanitizer}"
cmake --build "${build_dir}" --target "${targets[@]}" -j "$(nproc)"

# halt_on_error makes a single race fail the run instead of scrolling past.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"

status=0
for target in "${targets[@]}"; do
  echo "== ${sanitizer} sanitizer: ${target} =="
  if ! "${build_dir}/tests/${target}"; then
    status=1
  fi
done

if [ "${status}" -ne 0 ]; then
  echo "FAIL: sanitizer run reported errors" >&2
else
  echo "OK: all targets clean under ${sanitizer} sanitizer"
fi
exit "${status}"
