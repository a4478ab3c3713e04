#!/usr/bin/env python3
"""
Byte-level determinism harness: run each preset sweep, and a toroidal and
a duality sweep with formal q and d, in two child processes with
PYTHONHASHSEED=0 and PYTHONHASHSEED=1, and diff the canonical JSON streams
and summaries.  Equal bytes show that no report depends on the iteration
order of a set, which string hashing changes from one process to the next.

Usage:
    python scripts/determinism_harness.py
"""

import os
import subprocess
import sys

from toroidal_duality.cli import run_verify
from toroidal_duality.config import load_config
from toroidal_duality.reports import dumps_canonical

# (label, target, preset, overrides)
SWEEPS = [
    ("hecke-poly", "hecke", "poly", {}),
    ("toroidal-l1", "toroidal", "l1", {}),
    ("toroidal-poly", "toroidal", "poly", {}),
    ("toroidal-poly-symbolic", "toroidal", "poly", {"symbolic": True, "probes": 1, "modes": 1}),
    ("duality-l1", "duality", "l1", {}),
    ("duality-poly", "duality", "poly", {}),
    ("duality-poly-symbolic", "duality", "poly", {"symbolic": True, "probes": 2, "modes": 1}),
]


def blob(target, preset, overrides):
    cfg = load_config(preset=preset, overrides=overrides, env={})
    reports, summary, _ = run_verify(target, cfg)
    stream = "\n".join(dumps_canonical(r.to_json_obj()) for r in reports)
    return stream + "\n" + dumps_canonical(summary)


def blob_in_child(label, hash_seed):
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed)}
    done = subprocess.run([sys.executable, __file__, "--child", label], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def main():
    if sys.argv[1:2] == ["--child"]:
        label = sys.argv[2]
        _, target, preset, overrides = next(s for s in SWEEPS if s[0] == label)
        sys.stdout.write(blob(target, preset, overrides))
        return 0
    bad = 0
    for label, *_ in SWEEPS:
        ok = blob_in_child(label, 0) == blob_in_child(label, 1)
        print(f"{label:<22} PYTHONHASHSEED 0 vs 1: "
              f"{'byte-identical' if ok else 'MISMATCH'}")
        bad += 0 if ok else 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
