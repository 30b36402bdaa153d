#!/usr/bin/env python3
"""Paired A/B of the end-to-end benchmark: a parent revision vs this checkout.

    tools/ab.py <parent-rev> --workload batch_product --seed 1 \\
        --pairs 10 --seconds 25 [--workdir DIR]

Exports <parent-rev> with `git archive` into a temporary directory (or
--workdir, kept and reused across calls), builds perfbench's program in both
trees, then runs `perfbench/run.py --trace 0` on the two trees in
alternating order: pair i runs the parent first when i is even and this
checkout first when i is odd, so a slow or fast spell of the host lands on
both sides. Neither tree's perfbench/ is modified.

For every end-to-end metric that BENCHMARK.json declares, it prints each
side's median and quartiles, the median of the per-pair ratios
(candidate / parent), how many pairs the candidate won (strictly better in
the metric's direction), the parent's interquartile range, and whether the
median moved by more than that range. It also prints each side's mean host
steal from result.json. A claim of a gain is read from one table: wins on
at least 9 of 10 pairs, and a median gain larger than the parent's IQR.
"""

import argparse
import importlib.util
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAMP = ".ab_rev"


# --- Statistics (pure; tests/tools/ab_test.py pins them) -------------------

def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics
    (the 'inclusive' method: q1 of [1, 2, 3, 4, 5] is 2)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def wins(parent, candidate, better):
    """Pairs where the candidate is strictly better than its parent run."""
    if better == "higher":
        return sum(c > p for p, c in zip(parent, candidate))
    return sum(c < p for p, c in zip(parent, candidate))


def summarize(parent, candidate, better):
    """The per-metric row: both sides' quartiles, the paired ratio, the
    win count and whether the median gain beats the parent's IQR."""
    assert len(parent) == len(candidate) and parent
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(candidate)
    ratios = [c / p for p, c in zip(parent, candidate) if p != 0]
    gain = cm - pm if better == "higher" else pm - cm
    iqr = p3 - p1
    return {
        "better": better,
        "parent": {"q1": p1, "median": pm, "q3": p3},
        "candidate": {"q1": c1, "median": cm, "q3": c3},
        "paired_ratio": statistics.median(ratios) if ratios else None,
        "wins": wins(parent, candidate, better),
        "pairs": len(parent),
        "parent_iqr": iqr,
        "median_gain": gain,
        "gain_exceeds_iqr": gain > iqr,
    }


def run_order(pair):
    """The sides of pair `pair`, in the order they run."""
    return ("parent", "candidate") if pair % 2 == 0 else ("candidate",
                                                          "parent")


def parse_result(stdout):
    """The result JSON perfbench/run.py prints as its last line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError("last line is not a result: %r" % lines[-1][:200])
    return result


def format_table(rows, steal):
    """Renders summarize() rows (name -> row) as a fixed-width table."""
    head = ("metric", "better", "parent med [q1, q3]",
            "candidate med [q1, q3]", "ratio", "wins", "parent IQR",
            "gain>IQR")
    out = [head]
    for name, r in rows.items():
        p, c = r["parent"], r["candidate"]
        out.append((
            name, r["better"],
            "%.4g [%.4g, %.4g]" % (p["median"], p["q1"], p["q3"]),
            "%.4g [%.4g, %.4g]" % (c["median"], c["q1"], c["q3"]),
            "-" if r["paired_ratio"] is None else "%.4f" % r["paired_ratio"],
            "%d/%d" % (r["wins"], r["pairs"]),
            "%.4g" % r["parent_iqr"],
            "yes" if r["gain_exceeds_iqr"] else "no"))
    widths = [max(len(row[i]) for row in out) for i in range(len(head))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths))
             for row in out]
    lines.append("host steal %% (mean): parent %.2f, candidate %.2f"
                 % (steal["parent"], steal["candidate"]))
    return "\n".join(lines)


# --- Checkouts and runs -----------------------------------------------------

def export_rev(rev, dest):
    """Writes the tracked files of `rev` into `dest` (git archive)."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                          rev + "^{commit}"], check=True, text=True,
                         stdout=subprocess.PIPE).stdout.strip()
    stamp = os.path.join(dest, STAMP)
    if os.path.exists(stamp):
        with open(stamp) as f:
            if f.read().strip() != sha:
                raise SystemExit("ab: %s holds another revision" % dest)
        return sha
    os.makedirs(dest, exist_ok=True)
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", sha],
                         check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)
    with open(stamp, "w") as f:
        f.write(sha + "\n")
    return sha


def build(tree):
    """Builds perfbench's program in `tree` through its own run.py."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(tree, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if module.build() is None:
        raise SystemExit("ab: perfbench build failed in %s" % tree)


def run_once(tree, args):
    """One untraced perfbench run in `tree`: (result, host steal %)."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    result = parse_result(proc.stdout)
    path = os.path.join(tree, ".bench_build", "results",
                        "%s-seed%d-trace0" % (args.workload, args.seed),
                        "result.json")
    steal = 0.0
    if os.path.exists(path):
        with open(path) as f:
            steal = float(json.load(f).get("host_steal_pct", 0.0))
    return result, steal


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--workdir",
                        help="where to export the parent (kept and reused); "
                             "default: a temporary directory, removed")
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = {m["name"]: m["better"]
                   for m in json.load(f)["end_to_end"]}
    workdir = args.workdir or tempfile.mkdtemp(prefix="sas-ab-")
    try:
        parent_tree = os.path.join(workdir, "parent")
        sha = export_rev(args.parent_rev, parent_tree)
        trees = {"parent": parent_tree, "candidate": ROOT}
        for tree in trees.values():
            build(tree)
        values = {side: {m: [] for m in metrics} for side in trees}
        steal = {side: [] for side in trees}
        failed = {side: [0, 0] for side in trees}  # failed, attempted
        for pair in range(args.pairs):
            for side in run_order(pair):
                result, host_steal = run_once(trees[side], args)
                steal[side].append(host_steal)
                failed[side][0] += int(result.get("failed", 0))
                failed[side][1] += int(result.get("attempted", 0))
                for m in metrics:
                    values[side][m].append(result["metrics"][m]["value"])
                sys.stderr.write("ab: pair %d/%d %s %s\n" % (
                    pair + 1, args.pairs, side, json.dumps(
                        {m: result["metrics"][m]["value"] for m in metrics})))
    finally:
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)

    rows = {m: summarize(values["parent"][m], values["candidate"][m], better)
            for m, better in metrics.items()}
    mean_steal = {side: statistics.fmean(v) for side, v in steal.items()}
    print("A/B %s (%s) vs this checkout: workload %s, seed %d, %d pairs of "
          "%g s" % (args.parent_rev, sha[:12], args.workload, args.seed,
                    args.pairs, args.seconds))
    print(format_table(rows, mean_steal))
    for side, (nfail, nattempt) in failed.items():
        print("%s: %d of %d operations failed" % (side, nfail, nattempt))
    return 0


if __name__ == "__main__":
    sys.exit(main())
