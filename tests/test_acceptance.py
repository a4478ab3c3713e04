"""
Acceptance gate: one test per criterion, each at its stated tolerance.
Every residual is exact (zero tolerance); runtime budgets are asserted
directly.  Run with -s to see one pass/fail line per criterion.
"""

import hashlib
from collections import defaultdict

import pytest

from toroidal_duality.cli import run_verify
from toroidal_duality.config import load_config
from toroidal_duality.duality import DualityModule, duality_probes
from toroidal_duality.dualchecks import psi_inverse_items
from toroidal_duality.reports import dumps_canonical, run_relation_items

SWEEPS = {
    "hecke-poly": ("hecke", "poly", {}),
    "hecke-poly-negative": ("hecke", "poly", {"negative_control": True, "hecke_probes": 10}),
    "toroidal-l1": ("toroidal", "l1", {}),
    "toroidal-poly": ("toroidal", "poly", {}),
    "duality-l1": ("duality", "l1", {}),
    "duality-poly": ("duality", "poly", {}),
}

# sha256 of each sweep's canonical stream and summary, recorded in another
# process before the sparse-vector kernel and the identity constructor were
# folded; a refactor must keep every byte
PINNED = {
    "hecke-poly": ("5b16b459b9f0b3b47ed695b9f1dfa8bb7d1da99b04c04a79a279d41f2b8d805e",
                   "e62ff13c9f5e009103f319fc8768b6f67931a6d8e347ddbb8e1c7bc63ba4f016"),
    "hecke-poly-negative": ("27dd54a2e66cdbf0d0737a5d54a841e93365e70ed2ef2dd6da8982fddb6adfa6",
                            "a9d828f687564b3157d5188399b91bedbf9c4c82d1774a0b8c112fa81a17c3bc"),
    "toroidal-l1": ("52ee72723ec60afcfd23b992dc662cc43d342ccc0ae644504b6baa6631640ffa",
                    "2043a10199393d2790980454d31a76b3454a0120a25c2f66cef9528ffdfb88ad"),
    "toroidal-poly": ("ae3ef6e95d9fbf1e99552020f0973b7a14db4b0f5cb015afc469c324c4b06a5c",
                      "1a67cd1509ecb51bf98197a9961725501f1a320c4c55f1527f7078f7c60d7f25"),
    "duality-l1": ("1b4adeb3cfd15440dfe19d39f481d85fc32814db74afa4e761c6b39e936d89ef",
                   "4fb82029db40a28583ec9408513a3cd98fd2658420c5fb5c20feaf8d45409523"),
    "duality-poly": ("9f56422ed69c18e4ded6428214101c96f77f40e053226fd317d1d92c98a1c2a2",
                     "2f58714d7d81e5167f17807101bbbcb93ca5a46c0997ed956092972cbf9ce6b9"),
}


def _run_all():
    out = {}
    for name, (target, preset, extra) in SWEEPS.items():
        cfg = load_config(preset=preset, overrides=extra, env={})
        reports, summary, wall = run_verify(target, cfg)
        blob = "\n".join(dumps_canonical(r.to_json_obj()) for r in reports)
        out[name] = (reports, summary, blob, wall)
    return out


@pytest.fixture(scope="module")
def runs():
    return _run_all()


@pytest.fixture(scope="module")
def reruns(runs):
    # a second pass in the same process, with every operator cache warm
    return _run_all()


def _passed(reports):
    return [r for r in reports if r.status == "pass"]


def _say(criterion, ok, text):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok


def test_criterion_1_hecke_certification(runs):
    reports, summary, _, wall = runs["hecke-poly"]
    by_relation = defaultdict(set)
    for r in reports:
        by_relation[r.relation].add(r.probe)
    expected = {
        "defining.t-inv", "defining.t-quad", "defining.xy-twist", "defining.x-comm",
        "defining.y-comm", "defining.txt", "defining.tyt", "defining.xy-commutator",
        "qpres.t-inv", "qpres.t-quad", "qpres.tyt", "qpres.y-comm",
        "qpres.q2-wrap-t", "qpres.q-shift-y", "qpres.q-wrap-y",
        "segment.q-conj-y", "segment.p-conj-y", "segment.x0-wrap",
    }
    ok = expected <= set(by_relation)
    ok = ok and all(len(by_relation[rel]) >= 50 for rel in expected)
    ok = ok and summary["totals"]["failed"] == 0 and summary["totals"]["skipped"] == 0
    ok = ok and wall < 120
    neg_summary = runs["hecke-poly-negative"][1]
    ok = ok and neg_summary["totals"]["failed"] > 0
    _say(1, ok, f"hecke suites exact-zero on >=50 probes each in {wall:.1f}s; "
                f"negative control fails {neg_summary['totals']['failed']} checks")


def test_criterion_2_toroidal_finite_family(runs):
    reports, summary, _, wall = runs["toroidal-l1"]
    ids = {r.relation for r in reports}
    ok = {f"2.1.{k}" for k in range(1, 10)} <= ids
    ok = ok and summary["totals"]["failed"] == 0 and summary["totals"]["skipped"] == 0
    ok = ok and summary["config"]["modes"] == 3
    ok = ok and wall < 60
    _say(2, ok, f"(2.1.1)-(2.1.9) exact-zero for all vertex pairs, |k|<=3, "
                f"{summary['totals']['checked']} checks in {wall:.1f}s")


def test_criterion_3_toroidal_windowed_family(runs):
    reports, summary, _, wall = runs["toroidal-poly"]
    ids = {r.relation for r in reports}
    ok = {f"2.1.{k}" for k in range(1, 10)} <= ids
    ok = ok and summary["totals"]["failed"] == 0
    probes_all = {r.probe for r in reports}
    probes_skipped = {r.probe for r in reports if r.status == "skip"}
    valid_fraction = 1 - len(probes_skipped) / len(probes_all)
    ok = ok and valid_fraction >= 0.9
    ok = ok and wall < 900
    _say(3, ok, f"windowed family exact-zero on budget-valid probes "
                f"({valid_fraction:.0%} valid), |k|<=2, in {wall:.1f}s")


def test_criterion_4_closed_form_regressions(runs):
    want_everywhere = {
        "reg.translation-product", "reg.first-vertex-mode", "reg.cartan-weight", "reg.cartan-mode1",
        "reg.wrap-e0", "reg.wrap-f0", "reg.wrap-k0", "reg.standard-e0",
    }
    ok = True
    for name, extra in (("duality-l1", {"reg.braid-slot", "reg.translation-sign"}), ("duality-poly", set())):
        reports, summary, _, _ = runs[name]
        regs = [r for r in reports if r.relation.startswith("reg.")]
        ids = {r.relation for r in regs}
        ok = ok and (want_everywhere | extra) <= ids
        ok = ok and all(r.status == "pass" for r in regs)
    # the k-product identity of the wrap remark rides with the toroidal target
    for name in ("toroidal-l1", "toroidal-poly"):
        reports = runs[name][0]
        ok = ok and all(r.status == "pass" for r in reports if r.relation == "cc.k-product")
    _say(4, ok, "every printed closed form matches the operator pipeline exactly")


def test_criterion_5_conjugation_and_intertwining(runs):
    ok = True
    for name in ("duality-l1", "duality-poly"):
        reports, _, _, _ = runs[name]
        conj = [r for r in reports if r.relation.startswith(("psi.shift", "psi.double"))]
        tw = [r for r in reports if r.relation in ("braid.intertwine", "rotation.intertwine", "translation.intertwine")]
        modes = {abs(k) for r in conj for k in r.modes}
        ok = ok and conj and tw and {0, 1, 2} <= modes
        ok = ok and all(r.status == "pass" for r in conj + tw)
    # psi o psi_inv = id on 50 random vectors of the windowed family
    cfg = load_config(preset="poly", env={})
    dmod = DualityModule(cfg.build_hecke_module())
    probes = duality_probes(dmod, 50, seed=cfg.seed)
    reports = run_relation_items(psi_inverse_items(dmod, probes))
    ok = ok and len(reports) == 50 and all(r.status == "pass" for r in reports)
    _say(5, ok, "psi conjugation modewise (|k|<=2), generator intertwining, "
                "and the two-sided psi inverse on 50 vectors")


def test_criterion_6_integrability_and_central_charge(runs):
    ok = True
    for name in ("toroidal-l1", "toroidal-poly"):
        reports, _, _, _ = runs[name]
        groups = {
            "int.nilpotent": 0, "int.weight": 0, "cc.k-product": 0,
            "cc.kpm-comm": 0, "level.weights": 0,
        }
        for r in reports:
            if r.relation in groups:
                groups[r.relation] += 1
                ok = ok and r.status == "pass"
        ok = ok and all(v > 0 for v in groups.values())
    for name in ("duality-l1", "duality-poly"):
        reports = runs[name][0]
        c1 = [r for r in reports if r.relation == "reg.charge-one"]
        ok = ok and c1 and all(r.status == "pass" for r in c1)
    _say(6, ok, "nilpotency within l+1 steps, q-power weights, trivial central "
                "charge, and the weak level test")


def test_criterion_7_reconstruction(runs):
    reports, summary, _, _ = runs["duality-poly"]
    rec = [r for r in reports if r.relation in
           ("recon.y-shift", "recon.y-wrap", "recon.theta-conj", "recon.wrap-display")]
    ids = {r.relation for r in rec}
    ok = {"recon.y-shift", "recon.y-wrap", "recon.theta-conj", "recon.wrap-display"} <= ids
    ok = ok and all(r.status == "pass" for r in rec)
    _say(7, ok, "module-side conjugations and both proof displays exact-zero "
                "at l + 1 < n with q off the unit circle")


def test_criterion_8_determinism(runs, reruns):
    ok = True
    for name in SWEEPS:
        ok = ok and runs[name][2] == reruns[name][2]
        ok = ok and dumps_canonical(runs[name][1]) == dumps_canonical(reruns[name][1])
    _say(8, ok, "byte-identical JSON reports and summaries across two runs "
                "in one process, the second with warm caches")


def test_reports_match_pinned_digests(runs):
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    got = {name: (sha(runs[name][2]), sha(dumps_canonical(runs[name][1]))) for name in SWEEPS}
    assert got == PINNED
