#!/usr/bin/env python3
"""
Paired perfbench runs of a parent revision against this tree.

    python scripts/bench_pairs.py --parent REV [--pairs N] [--seed S] [--out FILE]

Run from the repository root.  It makes a clean `git archive` copy of REV
in a temporary directory, then runs

    python3 perfbench/run.py --workload all --seed S --seconds T --trace 0

N times on each side, alternately in that copy and in this tree: the
parent first in odd pairs, this tree first in even ones.  T is the
`run_seconds` of BENCHMARK.json, the run length the benchmark itself uses.
Only the last line perfbench prints is read.  For every workload and
end-to-end metric that BENCHMARK.json names, it prints each side's median
and quartiles over the pairs where both runs were correct, the change of
the median, and the pairs each side won (ties count for neither).  A pair
where either run was not correct, or printed no value of the metric, is
won by neither side but still counts among the pairs run.  `rule` says
whether a gain could be claimed: the change won at least nine tenths of
the pairs run, its median is better than the parent's by more than the
parent's interquartile range, and the share of sweeps that failed is no
larger on the change's side than on the parent's.

With --out it writes a `bench-trajectory@1` JSON holding every run and the
summary.  If FILE already holds one for the same parent, this run is added
to its `sets` list and every other key is kept, so one file can hold
several seeds.  The exit code is 0 only when every run was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def perfbench(cwd, seed, seconds):
    """perfbench's result line from one `--workload all` run in cwd, metric values flattened."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=cwd, env=env, stdout=subprocess.PIPE, text=True, check=False,
    )
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def failed_counts(runs):
    """{side: failed and attempted sweeps, summed over that side's runs}."""
    return {side: {key: sum(r[key] for r in runs if r["side"] == side) for key in ("failed", "attempted")}
            for side in ("parent", "change")}


def summarize(runs, workloads, metrics):
    """{workload: {metric: medians, quartiles, wins and the claim rule}} over the paired runs."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"] if run["correct"] else {}
    share = {side: c["failed"] / max(1, c["attempted"]) for side, c in failed_counts(runs).items()}
    out = {}
    for workload in workloads:
        rows = out[workload] = {}
        for metric in metrics:
            name, lower = f"{workload}/{metric['name']}", metric["better"] == "lower"
            got = [(p["parent"][name], p["change"][name]) for p in by_pair.values()
                   if name in p.get("parent", {}) and name in p.get("change", {})]
            if not got:
                continue
            sides = {}
            for i, side in enumerate(("parent", "change")):
                q1, med, q3 = quartiles([g[i] for g in got])
                sides[side] = {"median": med, "q1": q1, "q3": q3}
            wins = sum(c < p if lower else c > p for p, c in got)
            losses = sum(c > p if lower else c < p for p, c in got)
            gain = sides["parent"]["median"] - sides["change"]["median"]
            if not lower:
                gain = -gain
            rows[metric["name"]] = {
                **sides,
                "change_pct": 100 * (sides["change"]["median"] / sides["parent"]["median"] - 1),
                "change_wins": wins,
                "parent_wins": losses,
                "pairs": len(by_pair),
                "rule": (wins >= 0.9 * len(by_pair) and share["change"] <= share["parent"]
                         and gain > sides["parent"]["q3"] - sides["parent"]["q1"]),
            }
    return out


def print_summary(summary, metrics):
    units = {m["name"]: m["unit"] for m in metrics}
    print(f"{'workload':<22}{'metric':<14}{'unit':<6}{'parent median [q1, q3]':>34}"
          f"{'change median [q1, q3]':>34}{'change':>9}{'wins':>8}  rule")
    for workload, rows in summary.items():
        for name, row in rows.items():
            cells = [f"{row[s]['median']:.4g} [{row[s]['q1']:.4g}, {row[s]['q3']:.4g}]" for s in ("parent", "change")]
            print(f"{workload:<22}{name:<14}{units[name]:<6}{cells[0]:>34}{cells[1]:>34}{row['change_pct']:>+8.1f}%"
                  f"{row['change_wins']:>4}/{row['pairs']:<3}  {'met' if row['rule'] else '-'}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]
    parent = git("rev-parse", "--short", args.parent)
    change = git("rev-parse", "--short", "HEAD") + ("+working-tree" if git("status", "--porcelain", "-uno") else "")

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as copy:
        archive = subprocess.run(["git", "archive", parent], cwd=ROOT, check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", copy], input=archive, check=True)
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                result = perfbench(copy if side == "parent" else ROOT, args.seed, seconds)
                runs.append({"pair": pair, "side": side, **result})
                print(f"pair {pair} {side}: correct {result['correct']}, "
                      f"{result['failed']} of {result['attempted']} sweeps failed", file=sys.stderr)

    summary = summarize(runs, workloads, metrics)
    print_summary(summary, metrics)
    failed = failed_counts(runs)
    print("failed sweeps: " + ", ".join(f"{side} {c['failed']} of {c['attempted']}" for side, c in failed.items()))
    if args.out:
        command = f"python3 perfbench/run.py --workload all --seed {args.seed} --seconds {seconds:g} --trace 0"
        entry = {
            "command": command,
            "seed": args.seed,
            "order": f"{args.pairs} pairs; parent first in odd pairs, change first in even pairs",
            "failed": failed,
            "summary": summary,
            "runs": runs,
        }
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        if doc.get("schema") != "bench-trajectory@1" or doc.get("parent_commit") != parent:
            doc = {"schema": "bench-trajectory@1", "parent_commit": parent, "sets": []}
        doc["host"] = f"{os.cpu_count()} CPU, {platform.system()}, Python {platform.python_version()}; " \
                      "perfbench times are calibrated seconds (see perfbench/run.py)"
        doc["change_commit"] = change
        doc.setdefault("sets", []).append(entry)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
