"""Exact-kernel properties: ring axioms, canonical forms, specialization, serialization."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toroidal_duality.scalars import (
    D,
    Laurent,
    LaurentFrac,
    Q,
    YSYM,
    is_unit,
    is_zero,
    make_laurent,
    scalar_from_json,
    scalar_to_json,
    sc_inv,
    sc_pow,
    specialize,
)

rationals = st.builds(
    Fraction, st.integers(-60, 60), st.integers(1, 12)
)
exponents = st.tuples(
    st.integers(-3, 3), st.integers(-2, 2), st.integers(-1, 1)
)


@st.composite
def laurents(draw):
    terms = draw(st.dictionaries(exponents, rationals, max_size=4))
    return make_laurent(terms)


@st.composite
def scalars(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(rationals)
    if kind == 1:
        return draw(laurents())
    num = draw(laurents())
    den = make_laurent({(0, 0, 0): Fraction(1), (1, 0, 0): draw(rationals)})
    if is_zero(den):
        den = Fraction(1)
    return LaurentFrac.make(num, den)


@given(scalars(), scalars(), scalars())
@settings(max_examples=120, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(scalars(), scalars())
@settings(max_examples=120, deadline=None)
def test_add_then_subtract_is_exact(a, b):
    assert (a + b) - b == a


@given(scalars(), scalars())
@settings(max_examples=80, deadline=None)
def test_multiply_by_unit_inverse_is_exact(a, b):
    if is_zero(b):
        return
    assert a * b * sc_inv(b) == a


small_rationals = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 4))


@given(laurents(), laurents(), small_rationals, small_rationals)
@settings(max_examples=100, deadline=None)
def test_specialization_is_a_homomorphism(a, b, qv, dv):
    if qv == 0 or dv == 0:
        return
    subs = {"q": qv, "d": dv, "y": Fraction(1)}
    assert specialize(a + b, subs) == specialize(a, subs) + specialize(b, subs)
    assert specialize(a * b, subs) == specialize(a, subs) * specialize(b, subs)


def test_polynomial_identity():
    assert (Q + 1) * (Q - 1) == Q * Q - 1


def test_monomial_inverse():
    a = make_laurent({(-3, 0, 0): Fraction(2)})
    assert sc_inv(a) == make_laurent({(3, 0, 0): Fraction(1, 2)})


def test_specialize_derived_twist():
    x = sc_pow(Q, 5) * sc_pow(D, -5)
    assert specialize(x, {"q": Fraction(2), "d": Fraction(3)}) == Fraction(32, 243)


def test_demotion_keeps_specialized_runs_rational():
    assert Q * sc_inv(Q) == Fraction(1)
    assert isinstance(Q * sc_inv(Q), Fraction)
    assert isinstance((Q + 1) - Q, Fraction)


def test_fraction_reduction_clears_common_factors():
    q2m1 = Q * Q - 1
    qm1 = Q - 1
    frac = LaurentFrac.make(q2m1, qm1)
    assert frac == Q + 1


def test_fraction_canonical_form():
    f = sc_inv(Q * Q + 1)
    assert isinstance(f, LaurentFrac)
    # denominator: integer coprime coefficients, positive grlex lead
    lead_exp, lead_coeff = f.den.leading()
    assert lead_coeff > 0
    assert all(c.denominator == 1 for c in f.den.terms.values())
    assert (Q * Q + 1) * f == Fraction(1)


def test_multivariate_common_factor_is_cleared():
    common = Q * D + YSYM + 1
    assert LaurentFrac.make(common * (Q - YSYM), common * (D + Q)) == LaurentFrac.make(Q - YSYM, D + Q)
    assert LaurentFrac.make(common * (Q + 1), common) == Q + 1
    assert sc_inv(Q + D) * (Q + D) == Fraction(1)


def test_mixed_variant_promotion_chain():
    r = Fraction(3, 2)
    lp = Q + 1
    fr = sc_inv(Q + 1)
    assert isinstance(r + lp, Laurent)
    assert isinstance(lp * fr, Fraction)  # (q+1)/(q+1) demotes all the way
    assert isinstance(r * fr, LaurentFrac)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        sc_inv(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        sc_inv(make_laurent({}))


def test_units():
    assert is_unit(Q)
    assert is_unit(sc_pow(Q, -4) * D)
    assert not is_unit(Q + 1)
    assert is_unit(sc_inv(Q + 1))


@given(scalars())
@settings(max_examples=100, deadline=None)
def test_serialization_round_trip(a):
    assert scalar_from_json(scalar_to_json(a)) == a


def test_serialization_shapes():
    assert scalar_to_json(Fraction(3, 2)) == "3/2"
    assert scalar_to_json(Fraction(5)) == "5"
    obj = scalar_to_json(Q + 1)
    assert obj == {"laurent": [[[0, 0, 0], "1"], [[1, 0, 0], "1"]]}
    assert "num" in scalar_to_json(sc_inv(Q + YSYM))


def _double_loop_product(a, b):
    """Reference product: every term pair, merged and normalized by make_laurent."""
    ta = a.terms if isinstance(a, Laurent) else {(0, 0, 0): Fraction(a)}
    tb = b.terms if isinstance(b, Laurent) else {(0, 0, 0): Fraction(b)}
    terms = {}
    for e1, c1 in ta.items():
        for e2, c2 in tb.items():
            exp = tuple(x + y for x, y in zip(e1, e2))
            terms[exp] = terms.get(exp, 0) + c1 * c2
    return make_laurent(terms)


factors = st.one_of(st.sampled_from([Fraction(0), Fraction(1), 0, 1]), rationals)
nonzero_rationals = rationals.filter(bool)


@st.composite
def monomials(draw):
    return make_laurent({draw(exponents): draw(nonzero_rationals)})


@given(laurents(), factors, monomials())
@settings(max_examples=150, deadline=None)
def test_rational_and_monomial_products_match_double_loop(a, c, m):
    assume(isinstance(a, Laurent))
    for got, want in ((a * c, _double_loop_product(a, c)),
                      (c * a, _double_loop_product(c, a)),
                      (a * m, _double_loop_product(a, m)),
                      (m * a, _double_loop_product(m, a))):
        assert type(got) is type(want)
        assert got == want


def test_product_demotion():
    a = Q + D
    assert type(a * 0) is Fraction and a * 0 == 0
    assert type(a * Fraction(0)) is Fraction
    assert a * 1 is a
    for k in range(-3, 4):
        one = sc_pow(Q, k) * sc_pow(Q, -k)
        assert type(one) is Fraction and one == 1
    mono = make_laurent({(2, -1, 0): Fraction(3, 2)})
    inv = make_laurent({(-2, 1, 0): Fraction(2, 3)})
    assert type(mono * inv) is Fraction and mono * inv == 1
    assert mono * make_laurent({(-2, 1, 0): Fraction(5)}) == Fraction(15, 2)
