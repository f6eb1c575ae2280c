#!/usr/bin/env bash
# One-command verify: configure -> build -> ctest -> sanitizer smoke.
#
#   scripts/ci.sh              # release + asan smoke + tsan concurrent smoke
#   scripts/ci.sh --fast       # release build + full ctest only
#   scripts/ci.sh --bench-relative [REF]
#                              # build release, then run the hosted-runner
#                              # bench gate path (bench_gate.sh --relative)
#                              # against REF (default: merge-base with
#                              # origin/main, else HEAD~1) on THIS machine
#   JOBS=8 scripts/ci.sh       # override build/test parallelism
#
# Exits non-zero on the first failing stage. Uses the CMakePresets.json
# presets, so the build trees land in build/, build-asan/, build-tsan/.
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1
JOBS="${JOBS:-$(nproc)}"
FAST=0
BENCH_RELATIVE=0
BENCH_RELATIVE_REF="${2:-}"
[[ "${1:-}" == "--fast" ]] && FAST=1
[[ "${1:-}" == "--bench-relative" ]] && BENCH_RELATIVE=1

stage() { printf '\n=== %s ===\n' "$*"; }

# --bench-relative: exercise the exact gate ci.yml runs on hosted
# runners (ISSUE 5) — build the candidate, rebuild the base ref in a
# grafted worktree on this same machine, compare. Catches breakage in
# the relative-mode plumbing before it gates a PR in CI.
if [[ "$BENCH_RELATIVE" == 1 ]]; then
  ref="$BENCH_RELATIVE_REF"
  if [[ -z "$ref" ]]; then
    ref=$(git merge-base HEAD origin/main 2>/dev/null || true)
    if [[ -z "$ref" || "$ref" == "$(git rev-parse HEAD)" ]]; then
      ref=$(git rev-parse HEAD~1)
    fi
  fi
  stage "configure + build (release)"
  cmake --preset release
  cmake --build --preset release -j "$JOBS"
  stage "bench regression gate (relative vs $(git rev-parse --short "$ref"))"
  scripts/bench_gate.sh --relative "$ref"
  stage "bench-relative gate green"
  exit 0
fi

stage "configure + build (release)"
cmake --preset release
cmake --build --preset release -j "$JOBS"

stage "ctest (release, all labels)"
ctest --preset release --parallel "$JOBS"

# Which kernels this box dispatches to (search from ISSUE 2; rebalance
# copy + gate locate from ISSUE 3), then prove the portable scalar
# fallback stays green for ALL of them by re-running the unit label with
# AVX2 disabled via the env override.
stage "hot-path dispatch"
./build/tests/test_hotpath --gtest_filter='HotpathDispatch.*' | grep '\[hotpath\]'

stage "ctest (release, unit label, CPMA_DISABLE_AVX2=1)"
dispatch_line="$(CPMA_DISABLE_AVX2=1 ./build/tests/test_hotpath \
  --gtest_filter='HotpathDispatch.*' | grep '\[hotpath\]')"
echo "$dispatch_line"
for kernel in dispatch search copy locate; do
  if ! grep -q "${kernel}=scalar" <<<"$dispatch_line"; then
    echo "FATAL: ${kernel} did not fall back to scalar under CPMA_DISABLE_AVX2"
    exit 1
  fi
done
CPMA_DISABLE_AVX2=1 ctest --test-dir build -L unit \
  --output-on-failure --parallel "$JOBS"

if [[ "$FAST" == 1 ]]; then
  echo "--fast: skipping bench gate + sanitizer stages"
  exit 0
fi

# Bench regression gate: CI-scale bench_rebalance + bench_ycsb runs
# (pma and hash-sharded backends) compared against the committed
# bench/baseline/*.json; a metric whose median over six runs regresses
# >10% against that one-run baseline fails the pipeline
# (scripts/bench_gate.sh --update to rebaseline after intentional
# changes or on new hardware).
stage "bench regression gate (scripts/bench_diff.py --check)"
scripts/bench_gate.sh

stage "configure + build (asan+ubsan)"
cmake --preset asan
cmake --build --preset asan -j "$JOBS"

stage "ctest (asan, full suite)"
ctest --preset asan --parallel "$JOBS"

stage "configure + build (tsan)"
cmake --preset tsan
cmake --build --preset tsan -j "$JOBS"

stage "ctest (tsan, concurrent label)"
ctest --preset tsan

stage "all stages green"
