#!/usr/bin/env python3
"""Interleaved perfbench pairs between two commits.

    scripts/perfbench_pairs.py BASE_REF CHANGE_REF --workload ingest_ckpt \\
        --pairs 10 --seed0 2001 [--seconds 8] [--trace 0]
    scripts/perfbench_pairs.py --selftest

Each ref is checked out (detached) in a git worktree under
.bench_build/pairs/<sha>, whose own perfbench/run.py builds and runs that
tree's perfbench. Pair i runs seed0 + i on both sides, the base first in
even pairs and the change first in odd ones, so drift on the host hits
both sides alike. A run whose result is not "correct" stops the script.

The summary prints one line per metric: the base median [quartiles] ->
the change median, the change in percent, the pairs the change won
(better than the base run of the same pair) and the gap between the two
medians over the base's quartile spread. A gain is clear when the change
wins at least 9 pairs of 10 and that ratio is above 1. Metric directions
come from BENCHMARK.json; a metric it does not list prints '?' for won.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS_DIR = os.path.join(ROOT, ".bench_build", "pairs")


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def worktree(ref):
    """A detached worktree of `ref` under PAIRS_DIR, reused if present."""
    sha = git("rev-parse", "--verify", ref + "^{commit}")
    path = os.path.join(PAIRS_DIR, sha[:12])
    if not os.path.isdir(path):
        os.makedirs(PAIRS_DIR, exist_ok=True)
        git("worktree", "add", "--detach", path, sha)
    return sha, path


def parse_result(stdout):
    """The JSON on the last stdout line; refuses a run that is not correct."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perfbench printed nothing")
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        raise ValueError("run not correct: failed=%s" % result.get("failed"))
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_side(path, args, seed):
    cmd = [sys.executable, os.path.join(path, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=path, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("perfbench failed in %s (seed %d):\n%s" %
                 (path, seed, proc.stderr[-2000:]))
    try:
        return parse_result(proc.stdout)
    except ValueError as e:
        sys.exit("refusing seed %d in %s: %s" % (seed, path, e))


def directions():
    """metric name -> 'higher' or 'lower', from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["better"]
            for key in ("end_to_end", "per_layer") for m in bench.get(key, [])}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(base_runs, change_runs, better):
    """One line per metric shared by every run, in the first run's order."""
    names = [n for n in base_runs[0]
             if all(n in r for r in base_runs + change_runs)]
    lines = []
    for name in names:
        base = [r[name] for r in base_runs]
        change = [r[name] for r in change_runs]
        b_med, c_med = statistics.median(base), statistics.median(change)
        q1, q3 = quartiles(base)
        pct = (c_med - b_med) / b_med * 100 if b_med else float("nan")
        direction = better.get(name)
        if direction is None:
            won = "?"
        else:
            sign = 1 if direction == "higher" else -1
            won = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
        spread, gap = q3 - q1, abs(c_med - b_med)
        gap = gap / spread if spread else (float("inf") if gap else 0.0)
        lines.append("%-34s %12.6g [%.6g-%.6g] -> %12.6g  %+6.1f%%  won %s/%d"
                     "  gap/IQR %.1f" % (name, b_med, q1, q3, c_med, pct, won,
                                         len(base), gap))
    return lines


def selftest():
    better = {"ops_mops": "higher", "write_p99_ns": "lower"}
    base = [{"ops_mops": v, "write_p99_ns": 100.0, "extra": 1.0}
            for v in (1.0, 1.2, 1.4, 1.6, 1.8)]
    change = [{"ops_mops": v, "write_p99_ns": w, "extra": 1.0}
              for v, w in ((1.9, 90.0), (2.0, 110.0), (2.1, 80.0),
                           (1.5, 95.0), (2.2, 100.0))]
    lines = summarize(base, change, better)
    assert len(lines) == 3, lines
    ops, p99, extra = lines
    # ops: base median 1.4 [1.2-1.6] -> 2.0, won 4 of 5 (1.5 < 1.6).
    assert ops.startswith("ops_mops") and "[1.2-1.6]" in ops, ops
    assert "won 4/5" in ops and "+42.9%" in ops and "gap/IQR 1.5" in ops, ops
    # lower is better: 90, 80 and 95 beat 100; 110 and a tie do not.
    assert "won 3/5" in p99 and "-5.0%" in p99, p99
    assert "won ?/5" in extra and "gap/IQR 0.0" in extra, extra
    assert parse_result('build\n{"correct": true, "failed": 0, "metrics": '
                        '{"ops_mops": {"value": 2.5, "unit": "Mops/s"}}}') \
        == {"ops_mops": 2.5}
    for bad in ('{"correct": false, "failed": 3, "metrics": {}}', ""):
        try:
            parse_result(bad)
        except ValueError:
            continue
        raise AssertionError("accepted a bad run: %r" % bad)
    assert quartiles([5.0]) == (5.0, 5.0)
    print("perfbench_pairs selftest: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base_ref", nargs="?")
    ap.add_argument("change_ref", nargs="?")
    ap.add_argument("--workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=8)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        selftest()
        return
    if not (args.base_ref and args.change_ref and args.workload):
        ap.error("BASE_REF, CHANGE_REF and --workload are required")

    base_sha, base_path = worktree(args.base_ref)
    change_sha, change_path = worktree(args.change_ref)
    print("base %s, change %s, %s, %d pairs from seed %d, %d s" %
          (base_sha[:12], change_sha[:12], args.workload, args.pairs,
           args.seed0, args.seconds), flush=True)
    base_runs, change_runs = [], []
    for i in range(args.pairs):
        seed = args.seed0 + i
        sides = [("base", base_path, base_runs),
                 ("change", change_path, change_runs)]
        if i % 2:
            sides.reverse()
        for _, path, runs in sides:
            runs.append(run_side(path, args, seed))
        print("pair %d (seed %d, %s first) done" % (i, seed, sides[0][0]),
              flush=True)
    print("metric  base median [quartiles] -> change median, change, "
          "pairs the change won, median gap / base IQR")
    for line in summarize(base_runs, change_runs, directions()):
        print(line)


if __name__ == "__main__":
    main()
