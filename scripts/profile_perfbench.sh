#!/usr/bin/env bash
# Whole-process gprof profile of one perfbench run.
#
# Usage:
#   scripts/profile_perfbench.sh <workload> <seed> <seconds>
#   PROFILE_TOP=60 scripts/profile_perfbench.sh serve_storm 4 8
#
# Configures perfbench/ into .prof_build/ at the checkout root (git-ignored)
# with -pg and a static link, runs it with --trace 1 and prints the top
# PROFILE_TOP (default 30) lines of the gprof flat profile. The static link
# is what makes the profile whole: a dynamically linked -pg binary samples
# only its own text, so time spent in libc and libstdc++ (number
# formatting, strtod, allocation) never shows. The static libraries carry
# no call counts, only time samples. --trace 1 runs the untraced pass for
# half the seconds, then replays it traced, and skips the oracle Verify
# pass, so the profile is the workload's own. The run's JSON, the trace
# spans and the full flat profile stay in .prof_build/. Nothing under
# perfbench/ is edited.

set -euo pipefail

if [[ $# -ne 3 ]]; then
  echo "usage: $0 <workload> <seed> <seconds>" >&2
  exit 2
fi
workload="$1"
seed="$2"
seconds="$3"
top="${PROFILE_TOP:-30}"

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/.prof_build"
jobs="$(nproc)"
if ((jobs > 4)); then jobs=4; fi

cmake -S "${repo_root}/perfbench" -B "${build_dir}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS=-pg \
  "-DCMAKE_EXE_LINKER_FLAGS=-pg -static" >&2
cmake --build "${build_dir}" --target perfbench -j "${jobs}" >&2

cd "${build_dir}"
rm -f gmon.out
name="${workload}-${seed}"
./perfbench --workload "${workload}" --seed "${seed}" \
  --seconds "${seconds}" --trace 1 --trace-out "trace-${name}.tsv" \
  >"run-${name}.json"
gprof -b -p ./perfbench gmon.out >"flat-${name}.txt"
head -n "$((top + 5))" "flat-${name}.txt"
