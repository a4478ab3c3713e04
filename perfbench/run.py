#!/usr/bin/env python3
"""
Sweep benchmark for `toroidal-duality verify`.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from `src/`.  Each
sweep repeats the command-line path in-process on freshly built modules:
`cli.main(["verify", TARGET, ..., "--seed", N, "--out", TMP])`, so operator
caches start cold as in every command-line run.  The environment's
`TOROIDAL_*` variables are removed first and `--workers` is left at the
config default, so the caller's environment cannot change a workload.

Every sweep is checked: exit code 0, no `fail` or `skip` record, the
workload's expected check count, and, for the default seed 11, the sha256
of the canonical stream and summary recorded in `perfbench/baseline.json`.
A sweep that raises or fails a check counts as failed.

--trace 0 runs one warm-up sweep, then for S seconds alternates a
checked sweep, a set-up-only pass (it stops where the first check would
run) and a reference pass between each (see `reference_pass`).  The host
this was written on slows every process by up to 2x for tens of seconds at
a time, so each sweep and pass is calibrated by the reference passes just
before and after it: calibrated seconds = wall seconds * REF_NOMINAL_S /
(mean of the two reference passes), the time the sweep would take on a
machine where a reference pass takes REF_NOMINAL_S.  The end-to-end
metrics are the median calibrated sweep time, checks per second at that
median, the median calibrated set-up time (config load to the first check;
taken from every sweep and every set-up-only pass) and the peak RSS after
the warm-up sweep.  The raw wall-clock medians are printed above the
result line.

--trace 1 runs a warm-up sweep, one untraced sweep and two traced sweeps
(see layers.py), requires all three to give the same canonical bytes and
the two traced ones the same exact counts, runs the scalar microbenchmark
on operands from the workload's own operator outputs, and reports the
per-layer metrics.  The full trace, with per-operator fill ratios, is also
written to `.perfbench_out/trace-WORKLOAD-seedN.json`.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 only when every sweep was correct.  `--workload all`
runs each workload in a process of its own, one after another, and ends
with one such line whose metric names are prefixed `WORKLOAD/`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 11
MIN_ROUNDS = 5         # fewest timed sweeps in a --trace 0 run
# Seconds of a reference pass on the machine calibrated times refer to: about
# the fastest a pass ran on the 2-vCPU Xeon VM the benchmark was written on.
REF_NOMINAL_S = 0.033
REF_REPEATS = 16
# imported up front, so no sweep pays for the lazy imports in `cli.collect_items`
MODULES = ("cli", "hecke", "duality", "qtoroidal", "dualchecks", "series")

sys.path.insert(0, str(HERE))
from sweep import check_outputs, run_setup_only, run_sweep  # noqa: E402
from layers import Tracer, scalar_microbench  # noqa: E402


def load_workloads():
    with open(HERE / "baseline.json", encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def load_package():
    """Import the package from this checkout's src/ (and nowhere else)."""
    if not (SRC / "toroidal_duality" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no package source under {SRC}; run from the repository root")
    for key in [k for k in os.environ if k.startswith("TOROIDAL_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    pkg = SimpleNamespace(**{
        name: importlib.import_module(f"toroidal_duality.{name}") for name in MODULES
    })
    if Path(pkg.cli.__file__).resolve().parent != (SRC / "toroidal_duality").resolve():
        raise SystemExit(f"perfbench: imported {pkg.cli.__file__}, not the checkout's package")
    return pkg


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Checked sweeps of one workload at one seed, with attempt/failure counts."""

    def __init__(self, pkg, spec, seed, out_path):
        self.pkg = pkg
        self.argv = spec["argv"] + ["--seed", str(seed)]
        self.checks = spec["checks"]
        self.digests = spec["digests"] if seed == DEFAULT_SEED else None
        self.out_path = out_path
        self.attempted = 0
        self.failures = []

    def sweep(self, tracer=None):
        """One checked sweep; returns it, or None when it raised or was wrong."""
        self.attempted += 1
        gc.collect()
        try:
            if tracer is None:
                s = run_sweep(self.pkg.cli, self.argv, self.out_path)
            else:
                with tracer.installed(self.pkg):
                    s = run_sweep(self.pkg.cli, self.argv, self.out_path, tracer.wrap_items)
            check_outputs(s, self.out_path, self.checks, self.digests)
        except Exception:
            self.failures.append(traceback.format_exc(limit=4))
            return None
        if s.problems:
            self.failures.append("; ".join(s.problems))
            return None
        return s

    def setup_only(self):
        """Set-up seconds of one pass that stops before the first check, or None."""
        self.attempted += 1
        gc.collect()
        try:
            return run_setup_only(self.pkg.cli, self.argv, self.out_path)
        except Exception:
            self.failures.append(traceback.format_exc(limit=4))
            return None


def reference_pass():
    """
    Seconds for a fixed stdlib-only load like the package's inner loops:
    Fraction arithmetic and tuple-keyed dict updates.  It uses no code of
    the package, so no change to the package can move it.
    """
    t0 = perf_counter()
    for _ in range(REF_REPEATS):
        acc = Fraction(0)
        for i in range(1, 300):
            acc += Fraction(1, i) * 3
        table = {}
        for i in range(3000):
            table[(i % 17, i % 5)] = table.get((i % 13, 1), 0) + i
    return perf_counter() - t0


def end_to_end(runner, seconds):
    """
    A warm-up sweep, then rounds of (sweep, set-up-only pass), each between
    two reference passes, until `seconds` are used; end-to-end metrics from
    the calibrated times of the correct sweeps and passes.
    """
    if runner.sweep() is None:
        return {}, {}
    rss = peak_rss_mb()
    walls, sweeps, setups, refs = [], [], [], [reference_pass()]
    start = perf_counter()
    while True:
        t0 = perf_counter()
        s = runner.sweep()
        if s is None:
            return {}, {}
        refs.append(reference_pass())
        scale = 2 * REF_NOMINAL_S / (refs[-2] + refs[-1])
        walls.append(s.wall_s)
        sweeps.append(s.wall_s * scale)
        setups.append(s.setup_s * scale)
        t = runner.setup_only()
        if t is None:
            return {}, {}
        refs.append(reference_pass())
        setups.append(t * 2 * REF_NOMINAL_S / (refs[-2] + refs[-1]))
        now = perf_counter()
        if len(sweeps) >= MIN_ROUNDS and now - start + (now - t0) > seconds:
            break
    sweep_s = statistics.median(sweeps)
    return {
        "sweep_s": (sweep_s, "s"),
        "checks_per_s": (runner.checks / sweep_s, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }, {
        "sweeps": len(sweeps),
        "setups": len(setups),
        "raw_sweep_s": statistics.median(walls),
        "reference_s": statistics.median(refs),
    }


def per_layer(runner, workload, seed):
    """
    A warm-up sweep, one untraced and two traced sweeps; per-layer metrics
    and the full trace.  The tracing overhead compares calibrated times.
    """
    if runner.sweep() is None:
        return {}, {}
    refs = [reference_pass()]
    base = runner.sweep()
    if base is None:
        return {}, {}
    refs.append(reference_pass())
    base_s = base.wall_s / (refs[-2] + refs[-1])
    traced, traced_s = [], []
    for _ in range(2):
        tracer = Tracer()
        s = runner.sweep(tracer)
        if s is None:
            return {}, {}
        refs.append(reference_pass())
        traced_s.append(s.wall_s / (refs[-2] + refs[-1]))
        if s.digests != base.digests:
            runner.failures.append("traced canonical stream or summary differs from the untraced one")
        traced.append((tracer, s))
    first, second = (t.exact_counts() for t, _ in traced)
    if first != second:
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        runner.failures.append(f"traced counts differ between two traced sweeps: {diff[:5]}")

    tracer = traced[0][0]
    full = tracer.layer_metrics()
    full["reports.runner_overhead_s"] = (base.runner_s - base.thunk_s, "s")
    full["reports.serialize_s"] = (base.serialize_s, "s")
    full["reports.stream_bytes"] = (base.stream_bytes, "B")
    pct = statistics.quantiles(base.check_s, n=100)
    full["reports.check_us_p50"] = (statistics.median(base.check_s) * 1e6, "us")
    full["reports.check_us_p99"] = (pct[98] * 1e6, "us")
    full["reports.check_us_samples"] = (len(base.check_s), "count")
    full.update(scalar_microbench(tracer.operand_pools()))
    full["trace.overhead_ratio"] = (statistics.median(traced_s) / base_s, "ratio")

    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": workload, "seed": seed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(full.items())},
            "exact_counts": first,
            "timing": {k: {"calls": c, "total_s": t, "self_s": t - ch}
                       for k, (c, t, ch) in sorted(tracer.timing.items())},
        }, fh, indent=1, sort_keys=True)
    reported = {k: v for k, v in full.items() if not (k.startswith("duality.") and k.endswith(".fill_ratio"))}
    return reported, full


def run_all(workloads, args):
    """Every workload in a process of its own, one after another; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        else:
            lines = lines[:-1]
        print("\n".join(lines))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(workloads, args)

    pkg = load_package()
    OUT_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="sweep-", dir=OUT_DIR)
    try:
        runner = Runner(pkg, workloads[args.workload], args.seed, os.path.join(tmp, "stream.jsonl"))
        if args.trace:
            metrics, shown = per_layer(runner, args.workload, args.seed)
            note = ""
        else:
            metrics, info = end_to_end(runner, args.seconds)
            shown = metrics
            note = (f"; medians of {info['sweeps']} sweeps and {info['setups']} set-ups; raw sweep "
                    f"{info['raw_sweep_s']:.4f} s, reference pass {info['reference_s']:.4f} s "
                    f"(nominal {REF_NOMINAL_S} s)") if info else ""
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for reason in runner.failures:
        print(f"FAILED: {reason.strip()}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {runner.attempted} attempted, "
          f"{len(runner.failures)} failed{note}")
    for name, (value, unit) in sorted(shown.items()):
        print(f"  {name:<44} {value:>16.6g} {unit}")
    correct = not runner.failures and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": min(len(runner.failures), runner.attempted),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
