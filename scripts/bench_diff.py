#!/usr/bin/env python3
"""Compare two bench JSON files and print per-workload deltas.

Accepts the two JSON shapes the bench binaries emit (README Performance):

  - the flat record array written by the driver.h --json emitter
    (bench_fig3/fig4/ablation/graph/rebalance/ycsb): records are matched
    on their identifying string/int fields, and the metric fields
    (update_mops, ops_mops, scan_meps, sum_meps: higher is better) are
    compared;
  - google-benchmark's native JSON (bench_micro --json): entries are
    matched on the benchmark name and cpu_time (lower is better) is
    compared.

Usage:
  scripts/bench_diff.py BASELINE.json CANDIDATE.json [--check] [--threshold=10]
  scripts/bench_diff.py B1.json,B2.json,B3.json C1.json,C2.json,C3.json --check

Each side is one bench JSON file or several joined with commas; records
with the same identity pool their values in file order. When both sides
hold the same number (more than one) of values for a metric, the values
are paired rounds (scripts/bench_gate.sh runs the two sides of each
workload back to back): the delta is the median of the per-round
ratios, and a regression must also lose every round, which with no real
difference happens with probability 2^-rounds (1/64 for six). Otherwise
the medians are compared and the threshold alone decides. A metric
regresses when its delta is worse than the threshold (percent, default
10); with --check the exit status is then non-zero — the guard used for
the BENCH_PR*.json before/after tables.
"""

import argparse
import json
import statistics
import sys

# Metric fields and their direction: +1 = higher is better, -1 = lower.
METRICS = {
    "update_mops": +1,
    "scan_meps": +1,
    "sum_meps": +1,
    "ops_mops": +1,
    "items_per_second": +1,
    "cpu_time": -1,
    "real_time": -1,
}

# Record fields that never identify a workload (environment/noise):
# the build and timing stamps, and the observability counters the
# drivers attach — measurements of what a run did, never knobs.
VOLATILE = {
    "git_sha", "dispatch", "seconds", "items_per_rep",
    # Fault-tolerance observability (ISSUE 7): degradation counters a
    # healthy run reports as zeros — diagnostics for attributing a perf
    # delta to a degraded run, never part of a workload's identity.
    "failpoint_fires", "rebalance_retries", "watchdog_trips",
    # Placement observability (ISSUE 8): what the topology-aware pinner
    # saw on the host that ran the bench — environment, not workload.
    "host_cpus", "host_cores", "smt", "pin_order",
}

# Suffix/prefix families of volatile fields: per-op latency percentiles
# and their sample counts (*_p50_ns/_p99_ns/_p999_ns, *_lat_samples)
# are noisy between runs, so they must not split identities; ebr_* are
# the epoch-reclamation counters; tail_* / ev_* are the tail-attribution
# breakdown and the mechanism-event counts the ring saw — what the
# structure did during the run, never identity.
VOLATILE_SUFFIXES = ("_ns", "_lat_samples")
VOLATILE_PREFIXES = ("ebr_", "tail_", "ev_")


def is_volatile(field):
    return (field in VOLATILE
            or field.endswith(VOLATILE_SUFFIXES)
            or field.startswith(VOLATILE_PREFIXES))


def load_records(path, out):
    """Add a bench JSON file's metrics to {identity: {metric: [values]}}."""
    with open(path) as f:
        data = json.load(f)

    def add(ident, metrics):
        for k, v in metrics.items():
            out.setdefault(ident, {}).setdefault(k, []).append(v)

    if isinstance(data, dict) and "benchmarks" in data:
        for b in data["benchmarks"]:
            add(b.get("name", "?"),
                {k: v for k, v in b.items()
                 if k in METRICS and isinstance(v, (int, float)) and v != 0})
        return
    if not isinstance(data, list):
        raise ValueError(f"{path}: unrecognized bench JSON shape")
    for rec in data:
        ident_fields = []
        metrics = {}
        for k, v in sorted(rec.items()):
            if k in METRICS:
                if isinstance(v, (int, float)) and v != 0:
                    metrics[k] = v
            elif not is_volatile(k):
                ident_fields.append(f"{k}={v}")
        add(" ".join(ident_fields), metrics)


def load_side(paths):
    """Pool one side's comma-separated files into {identity: {metric: [v]}}."""
    out = {}
    for path in paths.split(","):
        load_records(path, out)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--check", action="store_true",
                    help="exit non-zero on any regression over the threshold")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="regression threshold in percent (default 10)")
    args = ap.parse_args()

    base = load_side(args.baseline)
    cand = load_side(args.candidate)
    common = [k for k in base if k in cand]
    if not common:
        print("bench_diff: no matching workloads between the two files",
              file=sys.stderr)
        return 2

    regressions = []
    width = max(len(k) for k in common)
    print(f"{'workload':<{width}}  {'metric':<16} {'baseline':>12} "
          f"{'candidate':>12} {'delta':>8}  rounds lost")
    for key in common:
        for metric, direction in METRICS.items():
            if metric not in base[key] or metric not in cand[key]:
                continue
            bv, cv = base[key][metric], cand[key][metric]
            b, c = statistics.median(bv), statistics.median(cv)
            paired = len(bv) == len(cv) > 1
            if paired:
                ratios = [y / x for x, y in zip(bv, cv)]
                delta_pct = (statistics.median(ratios) - 1) * 100.0
                lost = sum((r - 1) * direction < 0 for r in ratios)
            else:
                delta_pct = (c - b) / b * 100.0
            # Positive `gain` means the candidate improved.
            gain = delta_pct * direction
            marker = ""
            if gain < -args.threshold and (not paired or lost == len(bv)):
                marker = "  << REGRESSION"
                regressions.append((key, metric, delta_pct))
            rounds = f"{lost}/{len(bv)}" if paired else "-"
            print(f"{key:<{width}}  {metric:<16} {b:>12.4g} {c:>12.4g} "
                  f"{delta_pct:>+7.1f}%  {rounds:>6}{marker}")

    skipped_base = len(base) - len(common)
    skipped_cand = len(cand) - len(common)
    if skipped_base or skipped_cand:
        print(f"# unmatched workloads: {skipped_base} baseline-only, "
              f"{skipped_cand} candidate-only")
    if regressions:
        print(f"\n{len(regressions)} metric(s) regressed more than "
              f"{args.threshold:.0f}%:")
        for key, metric, delta in regressions:
            print(f"  {key} {metric}: {delta:+.1f}%")
        if args.check:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
