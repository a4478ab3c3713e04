#!/usr/bin/env python3
"""
Byte-level determinism harness: run each preset sweep, the Hecke negative
control (the one sweep with fail lines and notes), a Hecke sweep at
l = 3, two Hecke sweeps (one at n = 5, l = 3), a toroidal sweep and three
duality sweeps with formal q and d (one duality sweep at l = 3), a duality
sweep at n = 7, whose translation tables are the largest, and a duality
sweep at n = 5, l = 3 with modes up to 3, in two child processes with
PYTHONHASHSEED=0 and PYTHONHASHSEED=1, and diff the canonical JSON streams
and summaries.  Each line also prints the sha256 of those bytes and
compares it with the sweep's pinned digest in DIGESTS; the harness exits 1
when the two seeds disagree or a digest differs from its pin, so a change
that claims byte-identical reports is checked by this one command.
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
    # the negative control: 450 fail lines, whose notes no other sweep writes
    ("hecke-poly-negative", "hecke", "poly", {"negative_control": True}),
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

# sha256 of each sweep's stream and summary, pinned from the reports as they stand
DIGESTS = {
    "hecke-poly": "4fcadaf75095b33f8e8ba555967e7d8ea0065ee7e356bd3683a14c179686aa93",
    "hecke-poly-negative": "14380375290d5808dcc3f70631a0d3be6883a6172dc36fda8e317aab8a443a78",
    "hecke-l3": "35e3521900d6754f7c7118ad71027d651b50260df540031b638d7bc806bd5a0e",
    "hecke-poly-symbolic": "f8d5f7961ab4049facaa0224c0767c4cbb8bd0100cac5e1180cab317ddb780af",
    "hecke-l3-symbolic": "7386257b90899c8a2d6fafb315e74bfd6eb8207b71a764c0cbf41bf0bc137371",
    "toroidal-l1": "677cbbbe78c82d98f498337ad8de72f2364e8704035d3c4128b10ae3349df159",
    "toroidal-poly": "562b2b1cdb8ebf0d47c42e6749622dfcbe21dc829226de2c6747bb10ef5c6835",
    "toroidal-poly-symbolic": "4f6569a9de62c796fcb1ed5ec9085ca3e6c0140e0585b18b555586a52a4f490a",
    "duality-l1": "3318dfceb5881ef3682db4f14101be4dfbf5e57140d878cb6aea1c9bea473782",
    "duality-poly": "710823acca7b54b8e12f589fd4b9fea20aef7bb9e615866cb87e83880308b866",
    "duality-poly-symbolic": "1cc0879c54a4a83c5966f6ac9296e8e5df727d9460beab1f8769b8a1a5267c6a",
    "duality-poly-symbolic-k10": "4eb3bdf0fd9ff872c0efe50e4028732850c9d2d173359a5f1982da93a77771ff",
    "duality-l3-symbolic": "ae457641438ccb424d93c6231f3d27dc363f95a836249b42b1a72df400980658",
    "duality-n7": "17317357ce0d022ba204279014a3e80ecf15cac8926e61f42bc13ccfaf111ff7",
    "duality-l3-k3": "8c8648814dff7ae13b8e53c4019d527b3bb53fa96cf253cf1c5d9584c2194807",
}


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
        digest = hashlib.sha256(first.encode("utf-8")).hexdigest()
        pinned = digest == DIGESTS[label]
        print(f"{label:<26} PYTHONHASHSEED 0 vs 1: "
              f"{'byte-identical' if ok else 'MISMATCH'} "
              f"sha256 {digest} {'pinned' if pinned else 'DIFFERS FROM PIN ' + DIGESTS[label]}", flush=True)
        bad += 0 if ok and pinned else 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
