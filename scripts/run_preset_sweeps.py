#!/usr/bin/env python3
"""
Run every desk-scale sweep (both presets, all targets) and write the
canonical report streams plus summaries under out/.

Usage:
    python scripts/run_preset_sweeps.py [--outdir out]
"""

import argparse
import pathlib
import sys

from toroidal_duality.cli import run_verify
from toroidal_duality.config import load_config
from toroidal_duality.reports import dumps_canonical, write_jsonl

SWEEPS = [
    ("hecke", "poly"),
    ("toroidal", "l1"),
    ("toroidal", "poly"),
    ("duality", "l1"),
    ("duality", "poly"),
]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--outdir", default="out")
    args = ap.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    failed = 0
    for target, preset in SWEEPS:
        cfg = load_config(preset=preset)
        reports, summary, wall = run_verify(target, cfg)
        stem = f"{target}-{preset}"
        write_jsonl(outdir / f"{stem}.jsonl", reports)
        (outdir / f"{stem}.summary.json").write_text(dumps_canonical(summary) + "\n")
        t = summary["totals"]
        print(f"{stem:<16} {t['checked']:>7} checks  "
              f"pass {t['passed']:>7}  fail {t['failed']}  skip {t['skipped']}  "
              f"[{wall:.1f}s]")
        failed += t["failed"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
