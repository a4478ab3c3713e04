#!/usr/bin/env python3
"""
Byte-level determinism harness: run each preset sweep, a Hecke sweep at
l = 3, two Hecke sweeps (one at n = 5, l = 3), a toroidal sweep and three
duality sweeps with formal q and d (one duality sweep at l = 3), a duality
sweep at n = 7, whose translation tables are the largest, and a duality
sweep at n = 5, l = 3 with modes up to 3, in two child processes with
PYTHONHASHSEED=0 and PYTHONHASHSEED=1, and diff the canonical JSON streams
and summaries.  Each line also prints the sha256 of those bytes, so two
checkouts can be compared sweep by sweep.
Equal bytes show that no report depends on the iteration order of a set,
which string hashing changes from one process to the next.
The stream is the bytes `write_jsonl` writes, and each child first checks
them against the reference encoding `dumps_canonical(r.to_json_obj())`.

Usage:
    python scripts/determinism_harness.py
"""

import hashlib
import os
import subprocess
import sys
import tempfile

from toroidal_duality.cli import run_verify
from toroidal_duality.config import load_config
from toroidal_duality.reports import dumps_canonical, write_jsonl

# (label, target, preset, overrides)
SWEEPS = [
    ("hecke-poly", "hecke", "poly", {}),
    ("hecke-l3", "hecke", "poly", {"n": 5, "l": 3, "window": 7, "hecke_probes": 7}),
    ("hecke-poly-symbolic", "hecke", "poly", {"symbolic": True}),
    # formal Hecke words at scale: 2,450 checks
    ("hecke-l3-symbolic", "hecke", "poly", {"n": 5, "l": 3, "window": 10, "symbolic": True}),
    ("toroidal-l1", "toroidal", "l1", {}),
    ("toroidal-poly", "toroidal", "poly", {}),
    ("toroidal-poly-symbolic", "toroidal", "poly", {"symbolic": True, "probes": 1, "modes": 1}),
    ("duality-l1", "duality", "l1", {}),
    ("duality-poly", "duality", "poly", {}),
    ("duality-poly-symbolic", "duality", "poly", {"symbolic": True, "probes": 2, "modes": 1}),
    # the 16th probe is the first at module key (1, 0), where the symmetrizer makes LaurentFrac quotients
    ("duality-poly-symbolic-k10", "duality", "poly", {"symbolic": True, "probes": 16, "modes": 1}),
    ("duality-l3-symbolic", "duality", "poly", {"n": 5, "l": 3, "symbolic": True, "probes": 1, "modes": 2,
                                                "hecke_probes": 3}),
    ("duality-n7", "duality", "poly", {"n": 7, "probes": 1}),
    # the perfbench duality-l3 setting: Y powers up to 3 and every k+- degree up to 3
    ("duality-l3-k3", "duality", "poly", {"n": 5, "l": 3, "q": "2", "d": "3", "window": 8, "modes": 3,
                                          "probes": 5, "hecke_probes": 7}),
]


def blob(target, preset, overrides):
    cfg = load_config(preset=preset, overrides=overrides, env={})
    reports, summary, _ = run_verify(target, cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "stream.jsonl")
        write_jsonl(path, reports)
        with open(path, "rb") as fh:
            stream = fh.read().decode("utf-8")
    if stream != "".join(dumps_canonical(r.to_json_obj()) + "\n" for r in reports):
        raise SystemExit(f"{target} --preset {preset}: write_jsonl differs from the reference encoding")
    return stream + dumps_canonical(summary)


def blob_in_child(label, hash_seed):
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed)}
    # a child's error, such as a writer mismatch, goes to stderr and stops the harness
    done = subprocess.run([sys.executable, __file__, "--child", label], env=env,
                          stdout=subprocess.PIPE, text=True, check=True)
    return done.stdout


def main():
    if sys.argv[1:2] == ["--child"]:
        label = sys.argv[2]
        _, target, preset, overrides = next(s for s in SWEEPS if s[0] == label)
        sys.stdout.write(blob(target, preset, overrides))
        return 0
    bad = 0
    for label, *_ in SWEEPS:
        first = blob_in_child(label, 0)
        ok = first == blob_in_child(label, 1)
        print(f"{label:<26} PYTHONHASHSEED 0 vs 1: "
              f"{'byte-identical' if ok else 'MISMATCH'} "
              f"sha256 {hashlib.sha256(first.encode('utf-8')).hexdigest()}", flush=True)
        bad += 0 if ok else 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
