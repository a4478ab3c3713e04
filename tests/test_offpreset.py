"""
Off-preset parameter sweeps: nothing in the pipeline may be tuned to the
two named presets, so a different rank, twist, and seed must come out
exactly zero as well.
"""

from fractions import Fraction

import pytest

from toroidal_duality.duality import DualityModule, duality_probes
from toroidal_duality.dualchecks import psi_conjugation_items, regression_items
from toroidal_duality.hecke import (
    PolynomialModule,
    UnitModule,
    conjugation_lemma_checks,
    defining_relation_checks,
    hecke_probes,
    make_hecke_items,
    q_presentation_checks,
)
from toroidal_duality.params import specialized_params
from toroidal_duality.qtoroidal import current_relation_items, integrability_items
from toroidal_duality.reports import run_relation_items


def assert_all_pass(items):
    reports = run_relation_items(items)
    bad = [r for r in reports if r.status != "pass"]
    assert bad == [], bad[:5]


@pytest.fixture(scope="module")
def dm_wide():
    # n = 5, l = 2, q = 3, d = 2: twist (3/2)^6
    p = specialized_params(n=5, l=2, q=3, d=2)
    return DualityModule(PolynomialModule(p, window=7))


@pytest.fixture(scope="module")
def dm_unit_alt():
    # l = 1 family with a negative module scalar and d = q = 5
    p = specialized_params(n=4, l=1, q=5, d=5)
    return DualityModule(UnitModule(Fraction(-3, 2), Fraction(7, 3), p))


def test_hecke_suites_off_preset(dm_wide):
    mod = dm_wide.h
    probes = hecke_probes(mod, 12, seed=99)
    checks = (
        defining_relation_checks(mod)
        + q_presentation_checks(mod)
        + conjugation_lemma_checks(mod)
    )
    assert_all_pass(make_hecke_items(mod, checks, probes))


def test_current_relations_off_preset(dm_wide):
    probes = duality_probes(dm_wide, 4, seed=99)
    assert_all_pass(current_relation_items(dm_wide, 1, probes))
    assert_all_pass(integrability_items(dm_wide, 1, probes))


def test_current_relations_unit_alt(dm_unit_alt):
    probes = duality_probes(dm_unit_alt, 5, seed=17)
    assert_all_pass(current_relation_items(dm_unit_alt, 2, probes))


def test_duality_checks_off_preset(dm_wide, dm_unit_alt):
    for dm in (dm_wide, dm_unit_alt):
        probes = duality_probes(dm, 4, seed=23)
        assert_all_pass(psi_conjugation_items(dm, 1, probes))
        assert_all_pass(regression_items(dm, 1, probes))


def test_three_strand_tensor_tower():
    # l = 3 exercises S_3 symmetrizers, multi-term segment sums in the mode
    # formulas, the length-3 translation product, and reconstruction with a
    # genuinely cyclic wrap tuple
    from toroidal_duality.dualchecks import intertwining_items, reconstruction_items

    p = specialized_params(n=5, l=3, q=2, d=3)
    dm = DualityModule(PolynomialModule(p, window=9))
    probes = duality_probes(dm, 5, seed=31)
    hp = hecke_probes(dm.h, 6, seed=31)
    assert_all_pass(current_relation_items(dm, 1, probes))
    assert_all_pass(integrability_items(dm, 1, probes))
    assert_all_pass(regression_items(dm, 2, probes))
    assert_all_pass(psi_conjugation_items(dm, 1, probes))
    assert_all_pass(intertwining_items(dm, probes[:3]))
    assert_all_pass(reconstruction_items(dm, 2, hp))
