"""Straightening, canonical form, and the operator suite of the tensor module."""

import random
from fractions import Fraction

import pytest

from toroidal_duality.duality import (
    DualityModule,
    duality_probes,
    dvec_add,
    nondecreasing_tuples,
    t_on_tensor,
)
from toroidal_duality.hecke import PolynomialModule, UnitModule, apply_word, lt
from toroidal_duality.hecke import vec_scale as dvec_scale
from toroidal_duality.params import specialized_params


@pytest.fixture(scope="module")
def dm_unit():
    p = specialized_params(n=3, l=1, q=2, d=2)
    return DualityModule(UnitModule(Fraction(5), Fraction(7), p))


@pytest.fixture(scope="module")
def dm_poly():
    p = specialized_params(n=4, l=2, q=2, d=3)
    return DualityModule(PolynomialModule(p, window=8))


def test_straighten_descent_swap(dm_poly):
    # m (x) v2 (x) v1  ->  q^-1 (m T_1) (x) v1 (x) v2; on a symmetric monomial
    # the module side contributes q^2
    got = dm_poly.straighten({((0, 0), (2, 1)): Fraction(1)})
    assert got == {((0, 0), (1, 2)): Fraction(2)}  # q^-1 q^2 = q = 2


def test_straighten_is_idempotent(dm_poly):
    rng = random.Random(3)
    tuples = nondecreasing_tuples(dm_poly.n, dm_poly.l)
    for _ in range(12):
        raw = {}
        for _ in range(3):
            jt = tuple(rng.randint(1, dm_poly.n + 1) for _ in range(dm_poly.l))
            key = ((rng.randint(-2, 2), rng.randint(-2, 2)), jt)
            dvec_add(raw, [(key, Fraction(rng.randint(-4, 4)))])
        once = dm_poly.straighten(raw)
        twice = dm_poly.straighten(once)
        assert once == twice
        assert all(j == tuple(sorted(j)) for (_, j) in once)


def test_tensor_relation_well_defined(dm_poly):
    # straighten((m T_i) (x) v) == straighten(m (x) T_i v): the defining
    # relation of the tensor product over the finite Hecke algebra
    q = dm_poly.q
    for jt in [(2, 1), (1, 1), (3, 3), (5, 2), (1, 2), (4, 1)]:
        for hkey in [(0, 0), (1, 0), (-1, 2)]:
            lhs = dm_poly.straighten({
                (k, jt): c
                for k, c in apply_word(dm_poly.h, lt("T", 1), {hkey: Fraction(1)}).items()
            })
            rhs_raw = {}
            for jt2, c in t_on_tensor(1, jt, q):
                dvec_add(rhs_raw, [((hkey, jt2), c)])
            assert lhs == dm_poly.straighten(rhs_raw)


def test_repeated_tuple_collapse(dm_poly):
    # (m T_1) (x) v_jj and (q^2 m) (x) v_jj have one canonical form
    for jj in [(1, 1), (3, 3)]:
        for hkey in [(0, 0), (2, -1)]:
            mt = apply_word(dm_poly.h, lt("T", 1), {hkey: Fraction(1)})
            a = dm_poly.straighten({(k, jj): c for k, c in mt.items()})
            b = dm_poly.straighten({(hkey, jj): Fraction(4)})
            assert a == b


def test_sorted_distinct_tuple_unchanged(dm_poly):
    vec = {((0, 0), (1, 3)): Fraction(5)}
    assert dm_poly.straighten(dict(vec)) == vec


def test_weight_action(dm_poly):
    # k_i multiplies by q^(count(i) - count(i+1)); j = (2, 3) at q = 2
    vec = dm_poly.basis_vector((0, 0), (2, 3))
    assert dm_poly.km("k", 1, dict(vec)) == dvec_scale(Fraction(1, 2), vec)
    assert dm_poly.km("k", 2, dict(vec)) == vec
    assert dm_poly.km("k", 3, dict(vec)) == dvec_scale(Fraction(2), vec)
    assert dm_poly.km("k", 4, dict(vec)) == vec


def test_e_kills_empty_segment(dm_poly):
    vec = dm_poly.basis_vector((0, 0), (1, 3))  # no v_2 to lower for e_1
    assert dm_poly.km("e", 1, dict(vec)) == {}
    assert dm_poly.mode("e", 1, 2, dict(vec)) == {}


def test_finite_action_closed_form(dm_poly):
    # e_i on a sorted tuple: q^(1-t+s) m (1 + sum T_{k,s+1}) (x) v_(first i+1 slot -> i)
    vec = dm_poly.basis_vector((0, 0), (2, 2))
    got = dm_poly.km("e", 1, dict(vec))
    # segments for i=1: r=s=0, t=2: prefactor q^(1-2), T-sum k=1..1
    want_raw = {}
    pref = Fraction(1, 2)
    m0 = {(0, 0): pref}
    dvec_add(want_raw, [(((0, 0), (1, 2)), pref)])
    mt = apply_word(dm_poly.h, lt("T", 1), m0)
    dvec_add(want_raw, [((k, (1, 2)), c) for k, c in mt.items()])
    assert got == dm_poly.straighten(want_raw)


def test_psi_examples(dm_poly):
    n = dm_poly.n
    vec = dm_poly.basis_vector((0, 0), (1, 2))
    assert dm_poly.psi(dict(vec)) == dm_poly.basis_vector((0, 0), (2, 3))


def test_psi_example_l1(dm_unit):
    n = dm_unit.n
    vec = dm_unit.basis_vector((), (n + 1,))
    got = dm_unit.psi(dict(vec))
    # module side picks up X_1^-1, i.e. a^-1 = 1/5
    assert got == dvec_scale(Fraction(1, 5), dm_unit.basis_vector((), (1,)))


def test_psi_double_sided_inverse(dm_poly):
    probes = duality_probes(dm_poly, 50, seed=21)
    assert len(probes) == 50
    for pid, vec in probes:
        assert dm_poly.psi_inv(dm_poly.psi(dict(vec))) == vec
        assert dm_poly.psi(dm_poly.psi_inv(dict(vec))) == vec


def test_braid_fixes_trivial_component(dm_poly):
    # zero-weight vector killed by e_i and f_i is fixed by the braid operator
    vec = dm_poly.basis_vector((0, 0), (4, 4))
    i = 1  # segments empty
    assert dm_poly.km("e", i, dict(vec)) == {} and dm_poly.km("f", i, dict(vec)) == {}
    assert dm_poly.braid(i, dict(vec)) == vec


def test_tau_pure_relabel_without_wrap(dm_poly):
    vec = dm_poly.basis_vector((1, 0), (1, 3))
    assert dm_poly.tau(dict(vec)) == dm_poly.basis_vector((1, 0), (2, 4))


def test_affine_action_example(dm_unit):
    # f_{n+1} on m (x) v_{n+1} picks up d m Y (slot count 1 at l = 1)
    n = dm_unit.n
    vec = dm_unit.basis_vector((), (n + 1,))
    got = dm_unit.km("f", n + 1, dict(vec))
    # d * b = 2 * 7
    assert got == dvec_scale(Fraction(14), dm_unit.basis_vector((), (1,)))


def test_k_mode_matches_finite(dm_poly):
    probes = duality_probes(dm_poly, 6, seed=2)
    for pid, vec in probes:
        for i in range(1, dm_poly.n + 1):
            assert dm_poly.mode("k+", i, 0, dict(vec)) == dm_poly.km("k", i, dict(vec))
            assert dm_poly.mode("k-", i, 0, dict(vec)) == dm_poly.km("kinv", i, dict(vec))
            assert dm_poly.mode("e", i, 0, dict(vec)) == dm_poly.km("e", i, dict(vec))
            assert dm_poly.mode("f", i, 0, dict(vec)) == dm_poly.km("f", i, dict(vec))


def test_vertex_zero_zero_modes(dm_poly):
    # k_0 acts by the inverse theta-weight, e_0/f_0 move 1 <-> n+1 with X words
    vec = dm_poly.basis_vector((0, 0), (1, 5))
    n = dm_poly.n
    got = dm_poly.mode("k+", 0, 0, dict(vec))
    assert got == dvec_scale(Fraction(1), vec)  # #(n+1) - #(1) = 0
    vec2 = dm_poly.basis_vector((0, 0), (5, 5))
    assert dm_poly.mode("k+", 0, 0, dict(vec2)) == dvec_scale(Fraction(4), vec2)


def test_mode_requires_signed_window(dm_poly):
    with pytest.raises(AssertionError):
        dm_poly.mode("k+", 1, -1, {})
    with pytest.raises(AssertionError):
        dm_poly.mode("k-", 1, 1, {})


def test_mode_checks_arguments_before_empty_shortcut(dm_poly):
    # an empty input returns {} only after the arguments were checked
    for i in (0, 1):
        with pytest.raises(ValueError):
            dm_poly.mode("g", i, 0, {})
        assert dm_poly.mode("e", i, 0, {}) == {}
    for bad in (-1, dm_poly.n + 1):
        with pytest.raises(AssertionError):
            dm_poly.mode("e", bad, 0, {})
    with pytest.raises(AssertionError):
        dm_poly.mode("k+", 0, -1, {})
    with pytest.raises(AssertionError):
        dm_poly.mode("k-", 0, 1, {})


def test_probe_coverage(dm_poly):
    probes = duality_probes(dm_poly, 8, seed=11)
    tuples = {jt for _, vec in probes for (_, jt) in vec}
    # every vertex sees a repeated segment among the constant tuples
    for i in range(1, dm_poly.n + 2):
        assert (i, i) in tuples
