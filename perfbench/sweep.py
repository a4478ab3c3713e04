"""
One `toroidal-duality verify ... --out PATH` sweep, run in-process through
`cli.main`, with the timings the benchmark reports and the checks that make
a sweep count as correct.

The only hooks are thin wrappers around three names in `cli`, each called
once per sweep: `run_relation_items` (marks the end of set-up, keeps the
reports for per-check times), and `write_jsonl` / `dumps_canonical` (time
spent serializing the stream and the summary).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from time import perf_counter


@contextlib.contextmanager
def patched(patches):
    """Temporarily set attributes; `patches` is a list of (owner, name, value)."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, value in patches:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


@dataclass
class Sweep:
    wall_s: float
    setup_s: float
    runner_s: float = 0.0
    thunk_s: float = 0.0
    serialize_s: float = 0.0
    check_s: list = field(default_factory=list)
    checks: int = 0
    stream_bytes: int = 0
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


class _SetupDone(Exception):
    """Raised in place of the check runner to stop a set-up-only pass."""


def run_sweep(cli, argv, out_path, wrap_items=None):
    """
    Run `cli.main(argv + ["--out", out_path])` and time it.

    `wrap_items`, if given, maps the check items to the items actually run
    (the traced run wraps each thunk); it runs after set-up has been timed.
    """
    marks = {"serialize": 0.0}
    real_run, real_write, real_dumps = cli.run_relation_items, cli.write_jsonl, cli.dumps_canonical

    def run_items(items, workers=1):
        marks["first_check"] = t0 = perf_counter()
        if wrap_items is not None:
            items = wrap_items(items)
        reports = real_run(items, workers=workers)
        marks["runner"] = perf_counter() - t0
        marks["reports"] = reports
        return reports

    def write_jsonl(path, reports):
        t0 = perf_counter()
        real_write(path, reports)
        marks["serialize"] += perf_counter() - t0

    def dumps_canonical(obj):
        t0 = perf_counter()
        text = real_dumps(obj)
        marks["serialize"] += perf_counter() - t0
        return text

    hooks = [(cli, "run_relation_items", run_items), (cli, "write_jsonl", write_jsonl),
             (cli, "dumps_canonical", dumps_canonical)]
    with patched(hooks), contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        rc = cli.main(argv + ["--out", out_path])
        wall = perf_counter() - t0
    reports = marks["reports"]
    sweep = Sweep(
        wall_s=wall,
        setup_s=marks["first_check"] - t0,
        runner_s=marks["runner"],
        thunk_s=sum(r.elapsed for r in reports),
        serialize_s=marks["serialize"],
        check_s=[r.elapsed for r in reports],
        checks=len(reports),
    )
    if rc != 0:
        sweep.problems.append(f"verify exited {rc}")
    return sweep


def run_setup_only(cli, argv, out_path):
    """Seconds from `cli.main` entry to the moment the first check would run."""

    def stop(items, workers=1):
        raise _SetupDone(perf_counter())

    with patched([(cli, "run_relation_items", stop)]), contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        try:
            cli.main(argv + ["--out", out_path])
        except _SetupDone as done:
            return done.args[0] - t0
    raise RuntimeError("verify returned without reaching the check runner")


def check_outputs(sweep, out_path, expected_checks, expected_digests=None):
    """
    Read the written stream and summary back and record every way they are
    wrong: a fail or skip record, a wrong check count, or (when digests are
    given) bytes that differ from the recorded ones.  Deletes both files.
    """
    spath = out_path[: -len(".jsonl")] + ".summary.json"  # where verify writes it
    try:
        with open(out_path, "rb") as fh:
            stream = fh.read()
        with open(spath, "rb") as fh:
            summary_bytes = fh.read()
    finally:
        for path in (out_path, spath):
            if os.path.exists(path):
                os.remove(path)
    sweep.stream_bytes = len(stream)
    sweep.digests = {
        "stream": hashlib.sha256(stream).hexdigest(),
        "summary": hashlib.sha256(summary_bytes).hexdigest(),
    }
    lines = stream.splitlines()
    problems = sweep.problems
    if len(lines) != expected_checks or sweep.checks != expected_checks:
        problems.append(f"{len(lines)} records, expected {expected_checks}")
    not_pass = sum(1 for line in lines if b'"status":"pass"' not in line)
    if not_pass:
        problems.append(f"{not_pass} records are not a pass")
    totals = json.loads(summary_bytes)["totals"]
    if (totals["checked"], totals["passed"]) != (expected_checks, expected_checks):
        problems.append(f"summary totals {totals}")
    if expected_digests is not None and sweep.digests != expected_digests:
        problems.append("canonical stream or summary differs from the recorded digests")
    return sweep
