#!/usr/bin/env bash
# Bench regression gate: run the CI-scale rebalance and YCSB
# workload benchmarks and fail on >threshold throughput regressions via
# scripts/bench_diff.py --check, instead of waiting for someone to run
# the benches by hand. Each workload runs ROUNDS times per side: one run
# per side is below this gate's noise.
#
#   scripts/bench_gate.sh                  # vs committed bench/baseline/
#   scripts/bench_gate.sh --update         # regenerate those baselines
#   scripts/bench_gate.sh --relative REF   # vs REF built on THIS machine
#   scripts/bench_gate.sh --relative REF --keep   # keep the base worktree
#   CPMA_BENCH_GATE_THRESHOLD=25 ...       # widen the gate (noisy hosts)
#   CPMA_SKIP_BENCH_GATE=1 ...             # skip entirely
#
# Two modes:
#  - committed-baseline (default): compares against bench/baseline/*.json.
#    Those are machine-specific absolutes from one run — regenerate with
#    --update on the machine that runs the gate (scripts/ci.sh uses this
#    mode on the baseline box). A metric fails when the median of its
#    rounds is more than the threshold below the baseline.
#  - --relative REF: builds REF in a temporary git worktree with the
#    current bench_ycsb/bench_rebalance drivers and their headers
#    grafted on, then runs both sides on the same machine, taking turns
#    on each workload (a rebalance workload or a YCSB mix): the two runs
#    of a workload sit back to back, base first in odd rounds and
#    candidate first in even ones, so machine drift hits both. A metric
#    fails when its median round-by-round ratio is more than the
#    threshold worse AND the candidate lost every round (bench_diff.py).
#    This is the mode for heterogeneous/hosted CI runners, where
#    committed absolutes from another machine class would gate on
#    hardware, not code.
#
# The gate knobs are deliberately small so one run stays in CI seconds,
# and only workloads whose repetition runs long enough to be gateable
# (>= tens of ms) are included: the sub-millisecond kernel microbenches
# (spread / merged / resize at CI scale) swing tens of percent between
# process runs and belong to the full-size BENCH_PR*.json methodology,
# not a pass/fail gate.
set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

if [[ "${CPMA_SKIP_BENCH_GATE:-0}" == 1 ]]; then
  echo "bench_gate: skipped (CPMA_SKIP_BENCH_GATE=1)"
  exit 0
fi

BUILD="${BUILD:-build}"
BASELINE_DIR=bench/baseline
OUT="$BUILD/bench_gate"
THRESHOLD="${CPMA_BENCH_GATE_THRESHOLD:-10}"
# Single runs swing tens of percent between processes on a 4-vCPU host:
# A/A runs of one build failed a 10% gate on single runs (by up to 31%)
# and on medians of five rounds. A workload losing all six rounds
# happens by chance with probability 1/64.
ROUNDS=6
# Knobs must stay identical between the two sides or bench_diff finds no
# matching workloads. bench_rebalance keeps best-of repetitions.
REBAL_ARGS=(--ops=400000 --segments=512 --batch=2048 --threads=4 --reps=5)
REBAL_WHAT=(dense batch_insert scan)
# YCSB mixes on the PMA and the hash-sharded front end at CI scale: the
# update-heavy (A), read-mostly (B), read-only (C) and read-latest (D)
# mixes, insert-only (I), and full scans under writers (S, gated on
# its ordered-Scan and SumAll pass rates, scan_meps and sum_meps, as
# well as ops_mops).
YCSB_ARGS=(--records=60000 --ops=200000 --threads=4 --backends=pma,sharded)
YCSB_MIXES=(A B C D I S)
UNITS=("${REBAL_WHAT[@]/#/rebalance-}" "${YCSB_MIXES[@]/#/ycsb-}")

rm -rf "$OUT"
mkdir -p "$OUT"
# run_unit BINDIR OUTDIR UNIT: one gate workload, rebalance-WHAT or
# ycsb-MIX, into OUTDIR/UNIT.json.
run_unit() {
  local bindir="$1" outdir="$2" unit="$3"
  mkdir -p "$outdir"
  case "$unit" in
    rebalance-*) "$bindir/bench_rebalance" "${REBAL_ARGS[@]}" \
                   --what="${unit#*-}" --json="$outdir/$unit.json" ;;
    ycsb-*) "$bindir/bench_ycsb" "${YCSB_ARGS[@]}" --mixes="${unit#*-}" \
              --json="$outdir/$unit.json" ;;
  esac
}

# rounds DIR BENCH: BENCH's units of every round under DIR, round by
# round, comma-joined — one side for bench_diff, which pairs the two
# sides' values in this order.
rounds() {
  local list="" r u
  for ((r = 1; r <= ROUNDS; r++)); do
    for u in "${UNITS[@]}"; do
      [[ "$u" == "$2"-* ]] && list+="${list:+,}$1/r$r/$u.json"
    done
  done
  echo "$list"
}

# compare BASE CAND: BASE holds rounds or the committed baseline files;
# CAND holds rounds.
compare() {
  local base status=0
  for f in rebalance ycsb; do
    base="$1/$f.json"
    [[ -f "$base" ]] || base="$(rounds "$1" "$f")"
    echo "--- bench_gate: $f, $ROUNDS rounds (threshold ${THRESHOLD}%) ---"
    python3 scripts/bench_diff.py "$base" "$(rounds "$2" "$f")" \
      --check --threshold="$THRESHOLD" || status=1
  done
  if [[ $status -ne 0 ]]; then
    echo "bench_gate: FAILED — a workload regressed more than" \
         "${THRESHOLD}% (see above)." >&2
  fi
  return $status
}

if [[ "${1:-}" == "--update" ]]; then
  mkdir -p "$BASELINE_DIR"
  "./$BUILD/bench/bench_rebalance" "${REBAL_ARGS[@]}" \
    --what="$(IFS=,; echo "${REBAL_WHAT[*]}")" \
    --json="$BASELINE_DIR/rebalance.json"
  "./$BUILD/bench/bench_ycsb" "${YCSB_ARGS[@]}" \
    --mixes="$(IFS=,; echo "${YCSB_MIXES[*]}")" --json="$BASELINE_DIR/ycsb.json"
  echo "bench_gate: baselines regenerated in $BASELINE_DIR/ — commit them"
  exit 0
fi

if [[ "${1:-}" == "--relative" ]]; then
  ref="${2:?bench_gate: --relative needs a git ref}"
  keep=0
  [[ "${3:-}" == "--keep" ]] && keep=1

  # The CI checkout has full history (fetch-depth 0); a shallow clone
  # must fetch the ref first.
  if ! git rev-parse --verify --quiet "${ref}^{commit}" >/dev/null; then
    echo "bench_gate: cannot resolve --relative ref '$ref'" \
         "(shallow clone without it? fetch it or pass a reachable ref)" >&2
    exit 1
  fi

  # Trap-based cleanup (ISSUE 5 fix): any exit — base build failure,
  # bench crash, Ctrl-C — removes the grafted worktree AND its build
  # tree, then prunes the registration; the old trap only ran
  # `git worktree remove`, which refuses a dirty tree on some git
  # versions and never deleted the mktemp dir on registration failure.
  base_wt="$(mktemp -d)"
  cleanup() {
    if [[ "$keep" == 1 ]]; then
      echo "bench_gate: --keep: leaving base worktree at $base_wt" >&2
      return 0
    fi
    git worktree remove --force "$base_wt" >/dev/null 2>&1 || true
    rm -rf "$base_wt"
    git worktree prune >/dev/null 2>&1 || true
  }
  trap cleanup EXIT
  echo "bench_gate: building baseline from $(git rev-parse --short "$ref")"
  # --detach: works from any HEAD state, including the detached HEAD a
  # hosted runner checks out for PR merge commits.
  git worktree add --detach --force "$base_wt" "$ref" >/dev/null
  # Graft the candidate's bench drivers and their headers so both sides
  # run identical workloads.
  cp bench/bench_ycsb.cc bench/bench_rebalance.cc bench/workloads.h \
    bench/driver.h "$base_wt/bench/"
  cmake -S "$base_wt" -B "$base_wt/build" -DCMAKE_BUILD_TYPE=Release \
    -DCPMA_BUILD_TESTS=OFF -DCPMA_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "$base_wt/build" -j "$(nproc)" \
    --target bench_ycsb bench_rebalance >/dev/null
  for ((r = 1; r <= ROUNDS; r++)); do
    for u in "${UNITS[@]}"; do
      if ((r % 2)); then
        run_unit "$base_wt/build/bench" "$OUT/base/r$r" "$u"
        run_unit "./$BUILD/bench" "$OUT/cand/r$r" "$u"
      else
        run_unit "./$BUILD/bench" "$OUT/cand/r$r" "$u"
        run_unit "$base_wt/build/bench" "$OUT/base/r$r" "$u"
      fi
    done
  done
  compare "$OUT/base" "$OUT/cand"
  exit $?
fi

for f in rebalance ycsb; do
  if [[ ! -f "$BASELINE_DIR/$f.json" ]]; then
    echo "bench_gate: missing $BASELINE_DIR/$f.json" \
         "(run scripts/bench_gate.sh --update and commit)" >&2
    exit 1
  fi
done
for ((r = 1; r <= ROUNDS; r++)); do
  for u in "${UNITS[@]}"; do run_unit "./$BUILD/bench" "$OUT/r$r" "$u"; done
done
compare "$BASELINE_DIR" "$OUT"
exit $?
