#!/usr/bin/env python3
"""
Byte-level determinism harness: run each preset sweep, and a toroidal and
a duality sweep with formal q and d, twice with different worker counts and
diff the canonical JSON streams and summaries.

Usage:
    python scripts/determinism_harness.py
"""

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


def blob(target, preset, overrides, workers):
    cfg = load_config(preset=preset, overrides={**overrides, "workers": workers}, env={})
    reports, summary, _ = run_verify(target, cfg)
    stream = "\n".join(dumps_canonical(r.to_json_obj()) for r in reports)
    return stream, dumps_canonical(summary)


def main():
    bad = 0
    for label, target, preset, overrides in SWEEPS:
        s1, sum1 = blob(target, preset, overrides, workers=1)
        s3, sum3 = blob(target, preset, overrides, workers=3)
        ok = s1 == s3 and sum1 == sum3
        print(f"{label:<22} workers 1 vs 3: "
              f"{'byte-identical' if ok else 'MISMATCH'}")
        bad += 0 if ok else 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
