"""Certification of the windowed Laurent-monomial module family."""

import random
from fractions import Fraction

import pytest

from toroidal_duality.hecke import (
    PolynomialModule,
    WindowBudget,
    apply_expr,
    apply_word,
    conjugation_lemma_checks,
    defining_relation_checks,
    hecke_probes,
    lt,
    make_hecke_items,
    p_word,
    q_presentation_checks,
    tij_word,
    vec_sub,
    winv,
    wmul,
    x0_word,
)
from toroidal_duality.params import specialized_params, symbolic_params
from toroidal_duality.scalars import sc_pow


@pytest.fixture(scope="module")
def module():
    return PolynomialModule(specialized_params(n=4, l=2, q=2, d=3), window=8)


def run_suite(mod, checks, probes, allow_skips=False):
    failures = []
    for meta, thunk in make_hecke_items(mod, checks, probes):
        zero, valid, note = thunk()
        if not valid:
            if not allow_skips:
                failures.append((meta, "budget-invalid probe in a suite that expects none"))
        elif not zero:
            failures.append((meta, note))
    return failures


def test_construction_guards():
    with pytest.raises(ValueError):
        PolynomialModule(specialized_params(n=3, l=1, q=2, d=2), window=8)


def test_x_is_multiplication(module):
    out = apply_word(module, lt("X", 1), {(0, 0): Fraction(1)})
    assert out == {(1, 0): Fraction(1)}


def test_t_on_symmetric_monomial(module):
    # oracle: on the one-dimensional s_i-fixed line T acts by a scalar, the
    # scalar must be a root of (x + 1)(x - q^2), and the normalization picks
    # the q^2 root (not -1)
    q2 = module.params.q ** 2
    for mu in [(0, 0), (2, 2), (-3, -3)]:
        out = apply_word(module, lt("T", 1), {mu: Fraction(1)})
        assert set(out) == {mu}
        scalar = out[mu]
        assert (scalar + 1) * (scalar - q2) == 0
        assert scalar == q2


def test_t_inverse_word(module):
    rng = random.Random(1)
    for _ in range(10):
        mu = (rng.randint(-4, 4), rng.randint(-4, 4))
        vec = {mu: Fraction(1)}
        assert apply_word(module, wmul(lt("T", 1), lt("T", 1, -1)), vec) == vec


def test_txt_relation_on_random_interior_monomials(module):
    q2 = Fraction(4)
    rng = random.Random(7)
    word = wmul(lt("T", 1), lt("X", 1), lt("T", 1))
    for _ in range(20):
        mu = (rng.randint(-5, 5), rng.randint(-5, 5))
        vec = {mu: Fraction(1)}
        budget = WindowBudget()
        lhs = apply_word(module, word, vec, budget)
        rhs = {k: q2 * c for k, c in apply_word(module, lt("X", 2), vec).items()}
        assert budget.ok()
        assert lhs == rhs


def test_q_letter_expands_to_x1_t(module):
    for mu in [(0, 0), (1, -2), (3, 3)]:
        vec = {mu: Fraction(1)}
        assert apply_word(module, lt("Q"), vec) == \
            apply_word(module, wmul(lt("X", 1), lt("T", 1)), vec)


def test_full_relation_suites(module):
    probes = hecke_probes(module, 50, seed=3)
    assert len(probes) >= 50
    checks = (
        defining_relation_checks(module)
        + q_presentation_checks(module)
        + conjugation_lemma_checks(module)
    )
    assert run_suite(module, checks, probes) == []


def test_negative_control_fails():
    bad = PolynomialModule(specialized_params(n=4, l=2, q=2, d=3), window=8,
                           corrupt_t1=True)
    probes = hecke_probes(bad, 10, seed=3)
    failures = run_suite(bad, defining_relation_checks(bad), probes)
    assert any(meta[0] == "defining.t-quad" for meta, _ in failures)


def test_shift_scale_is_pinned_to_x(module):
    # perturbing the derived scale breaks the X_0-Y_1 twist on degree <= 2 monomials
    assert module.xi == module.params.x
    bad = PolynomialModule(specialized_params(n=4, l=2, q=2, d=3), window=8)
    bad.xi = bad.params.x * Fraction(2)
    bad._cache.clear()
    probes = [("h0", {(0, 0): Fraction(1)}), ("h1", {(1, 1): Fraction(1)})]
    twist = [c for c in defining_relation_checks(bad) if c.relation == "defining.xy-twist"]
    assert run_suite(bad, twist, probes) != []


def test_unit_twist_degenerates_to_pure_shift():
    mod = PolynomialModule(specialized_params(n=4, l=2, q=2, d=2), window=8)  # x = 1
    assert mod.xi == Fraction(1)
    out = apply_word(mod, (("W", 0, 1),), {(3, -1): Fraction(1)})
    assert out == {(-1, 3): Fraction(1)}


def test_window_escape_is_flagged_not_raised(module):
    budget = WindowBudget()
    out = apply_word(module, lt("X", 1), {(8, 0): Fraction(1)}, budget)
    assert out == {} and not budget.ok()


def test_window_independence_on_trusted_region():
    small = PolynomialModule(specialized_params(n=4, l=2, q=2, d=3), window=8)
    big = PolynomialModule(specialized_params(n=4, l=2, q=2, d=3), window=13)
    word = wmul(x0_word(2), winv(p_word(1, 2)))
    rng = random.Random(11)
    for _ in range(15):
        mu = (rng.randint(-3, 3), rng.randint(-3, 3))
        b1, b2 = WindowBudget(), WindowBudget()
        r1 = apply_word(small, word, {mu: Fraction(1)}, b1)
        r2 = apply_word(big, word, {mu: Fraction(1)}, b2)
        assert b1.ok() and b2.ok()
        assert r1 == r2


def test_x0_p_exponent_is_forced():
    # the companion R_p display and the quadratic/cross relations force
    # q^(2r(r-l)); the opposite sign fails on the very first probe
    mod = PolynomialModule(specialized_params(n=4, l=2, q=2, d=3), window=8)
    lhs_word = wmul(x0_word(2), winv(p_word(1, 2)))
    rhs_word = wmul(lt("X", 1), tij_word(1, 1))
    vec = {(0, 0): Fraction(1)}
    lhs = apply_word(mod, lhs_word, vec)
    good = apply_expr(mod, ((sc_pow(mod.params.q, -2), rhs_word),), vec)
    bad = apply_expr(mod, ((sc_pow(mod.params.q, 2), rhs_word),), vec)
    assert not vec_sub(lhs, good)
    assert vec_sub(lhs, bad)


def test_four_strand_suites_cover_t_conjugations():
    # l = 4 exercises the braid relation, the Q T-shift (1 < i < l-1), and
    # both lemmas' T parts (the first lemma needs j - i >= 2)
    mod = PolynomialModule(specialized_params(n=6, l=4, q=2, d=3), window=9)
    probes = hecke_probes(mod, 6, seed=13)
    checks = (
        defining_relation_checks(mod)
        + q_presentation_checks(mod)
        + conjugation_lemma_checks(mod)
    )
    ids = {c.relation for c in checks}
    assert {"defining.t-braid", "defining.t-comm", "defining.xt-comm", "defining.yt-comm",
            "qpres.q-shift-t", "segment.q-conj-t", "segment.p-conj-t"} <= ids
    assert run_suite(mod, checks, probes) == []


def test_declared_displacement_bounds(module):
    # Y and Q move support by at most l + 1 in max norm (measured: <= 1)
    rng = random.Random(5)
    l = module.l
    for _ in range(12):
        mu = (rng.randint(-4, 4), rng.randint(-4, 4))
        base = max(abs(x) for x in mu)
        for letter in [lt("Y", 1), lt("Y", 2), lt("Y", 1, -1), lt("Q"), lt("Q", 0, -1)]:
            out = apply_word(module, letter, {mu: Fraction(1)})
            worst = max(max(abs(x) for x in k) for k in out)
            assert worst <= base + l + 1
        for letter in [lt("X", 1), lt("X", 2, -1)]:
            out = apply_word(module, letter, {mu: Fraction(1)})
            assert max(max(abs(x) for x in k) for k in out) <= base + 1


def test_symbolic_mode_suite():
    mod = PolynomialModule(symbolic_params(n=4, l=2), window=6)
    probes = hecke_probes(mod, 6, seed=5)
    checks = defining_relation_checks(mod) + q_presentation_checks(mod)
    assert run_suite(mod, checks, probes) == []


def test_descriptor_records_construction(module):
    d = module.descriptor()
    assert d["family"] == "polynomial"
    assert d["window"] == 8
    assert d["xi"] == "32/243"
    assert d["corrupt_t1"] is False
