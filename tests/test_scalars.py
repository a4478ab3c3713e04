"""Exact-kernel properties: ring axioms, canonical forms, specialization, serialization."""

import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toroidal_duality.scalars import (
    D,
    Laurent,
    LaurentFrac,
    Q,
    SYMBOLS,
    is_unit,
    is_zero,
    make_laurent,
    scalar_to_json,
    sc_inv,
    sc_mul,
    sc_pow,
)
from toroidal_duality.scalars import monomials as monomial_table


def specialize(a, subs):
    """The oracle of these tests: substitute rationals for formal symbols; `subs` maps symbol name -> Fraction."""
    if isinstance(a, (int, Fraction)):
        return Fraction(a)
    if isinstance(a, Laurent):
        vals = [subs.get(s) for s in SYMBOLS]
        out = Fraction(0)
        for exp, c in a.terms.items():
            term = c
            for v, e in zip(vals, exp):
                if e:
                    if v is None:
                        raise ValueError("substitution missing for a used symbol")
                    term = term * Fraction(v) ** e
            out += term
        return out
    if isinstance(a, LaurentFrac):
        den = specialize(a.den, subs)
        if not den:
            raise ZeroDivisionError("denominator vanishes under substitution")
        return specialize(a.num, subs) / den
    raise TypeError(f"not a scalar: {a!r}")


rationals = st.builds(
    Fraction, st.integers(-60, 60), st.integers(1, 12)
)
exponents = st.tuples(st.integers(-3, 3), st.integers(-2, 2))


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
    den = make_laurent({(0, 0): Fraction(1), (1, 0): draw(rationals)})
    if is_zero(den):
        den = Fraction(1)
    return LaurentFrac.make(num, den)


def invertible(x):
    """What sc_inv takes: a nonzero rational, or a unit times a polynomial in q (of a quotient, its numerator)."""
    if isinstance(x, LaurentFrac):
        return invertible(x.num)
    if isinstance(x, Laurent):
        return len({e[1:] for e in x.terms}) == 1
    return not is_zero(x)


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
    if not invertible(b):
        return
    assert a * b * sc_inv(b) == a


small_rationals = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 4))


@given(laurents(), laurents(), small_rationals, small_rationals)
@settings(max_examples=100, deadline=None)
def test_specialization_is_a_homomorphism(a, b, qv, dv):
    if qv == 0 or dv == 0:
        return
    subs = {"q": qv, "d": dv}
    assert specialize(a + b, subs) == specialize(a, subs) + specialize(b, subs)
    assert specialize(a * b, subs) == specialize(a, subs) * specialize(b, subs)


def test_polynomial_identity():
    assert (Q + 1) * (Q - 1) == Q * Q - 1


def test_monomial_inverse():
    a = make_laurent({(-3, 0): Fraction(2)})
    assert sc_inv(a) == make_laurent({(3, 0): Fraction(1, 2)})


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
    # denominator: integer coprime coefficients, positive lead (a polynomial in q,
    # so its largest exponent is its grlex lead)
    assert f.den.terms[max(f.den.terms)] > 0
    assert all(c.denominator == 1 for c in f.den.terms.values())
    assert (Q * Q + 1) * f == Fraction(1)


def test_multivariate_common_factor_is_cleared():
    # the common factor is a polynomial in q; the numerators use q and d
    common = Q * Q - Q * 2 + 3
    assert LaurentFrac.make(common * (Q * D - D * D), common * (Q + 5)) == LaurentFrac.make(Q * D - D * D, Q + 5)
    assert LaurentFrac.make(common * (Q * D + D * D + 1), common) == Q * D + D * D + 1
    assert sc_inv(Q + 2) * (Q + 2) == Fraction(1)


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
    with pytest.raises(ZeroDivisionError):
        sc_pow(Fraction(0), -1)


def test_units():
    assert is_unit(Q)
    assert is_unit(sc_pow(Q, -4) * D)
    assert not is_unit(Q + 1)
    assert is_unit(sc_inv(Q + 1))


@given(scalars())
@settings(max_examples=100, deadline=None)
def test_serialization_shapes(a):
    assert scalar_to_json(Fraction(3, 2)) == "3/2"
    assert scalar_to_json(Fraction(5)) == "5"
    obj = scalar_to_json(Q + 1)
    assert obj == {"laurent": [[[0, 0, 0], "1"], [[1, 0, 0], "1"]]}
    assert scalar_to_json(D * sc_inv(Q + 1)) == {
        "num": {"laurent": [[[0, 1, 0], "1"]]},
        "den": {"laurent": [[[0, 0, 0], "1"], [[1, 0, 0], "1"]]},
    }
    # every term of q^a d^b prints as [[a, b, 0], str(c)], lowest total degree first, then lexicographically
    obj = scalar_to_json(a)
    for x, printed in ((a.num, obj["num"]), (a.den, obj["den"])) if isinstance(a, LaurentFrac) else ((a, obj),):
        if isinstance(x, Laurent):
            assert printed == {"laurent": [[[e[0], e[1], 0], str(x.terms[e])]
                                           for e in sorted(x.terms, key=lambda e: (e[0] + e[1], e))]}
        else:
            assert printed == str(x)


def _double_loop_product(a, b):
    """Reference product: every term pair, merged and normalized by make_laurent."""
    ta = a.terms if isinstance(a, Laurent) else {(0, 0): Fraction(a)}
    tb = b.terms if isinstance(b, Laurent) else {(0, 0): Fraction(b)}
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
    mono = make_laurent({(2, -1): Fraction(3, 2)})
    inv = make_laurent({(-2, 1): Fraction(2, 3)})
    assert type(mono * inv) is Fraction and mono * inv == 1
    assert mono * make_laurent({(-2, 1): Fraction(5)}) == Fraction(15, 2)


# -- stored coefficient forms -----------------------------------------------

# int and Fraction inputs mixed, integral Fractions such as 4/2 among them
mixed_rationals = st.one_of(st.integers(-60, 60), rationals,
                            st.builds(Fraction, st.integers(-6, 6).map(lambda k: 2 * k), st.just(2)))


@st.composite
def mixed_laurents(draw):
    return make_laurent(draw(st.dictionaries(exponents, mixed_rationals, max_size=4)))


@st.composite
def q_polynomials(draw):
    """A nonzero denominator in q alone, as in scalars(): make() divides by no other non-unit."""
    den = make_laurent({(0, 0): draw(mixed_rationals), (1, 0): draw(mixed_rationals)})
    assume(not is_zero(den))
    return den


@st.composite
def mixed_scalars(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(mixed_rationals)
    if kind == 1:
        return draw(mixed_laurents())
    return LaurentFrac.make(draw(mixed_laurents()), draw(q_polynomials()))


def _stored_coefficient(c):
    """An int, or a Fraction that is not one: never a float, a bool or an integral Fraction."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def assert_stored_forms(x):
    """Every coefficient of a Laurent, or of a LaurentFrac's num and den, is stored narrowest."""
    if isinstance(x, LaurentFrac):
        assert_stored_forms(x.num)
        assert isinstance(x.den, Laurent)
        assert_stored_forms(x.den)
    elif isinstance(x, Laurent):
        assert x.terms and all(_stored_coefficient(c) and c for c in x.terms.values()), x.terms
        assert all(len(e) == 2 for e in x.terms), x.terms  # the exponent (a, b) of q^a d^b
        assert set(x.terms) != {(0, 0)}, x.terms  # a constant is a Fraction
    else:
        assert type(x) in (int, Fraction), repr(x)


def _kernel_result(x, *operands):
    """assert_stored_forms, and a rational result of a formal operand comes back as a Fraction."""
    assert_stored_forms(x)
    if any(isinstance(a, (Laurent, LaurentFrac)) for a in operands) and not isinstance(x, (Laurent, LaurentFrac)):
        assert type(x) is Fraction, repr(x)


@given(mixed_scalars(), mixed_scalars(), q_polynomials(), st.integers(-2, 2))
@example(make_laurent({(0, 1): Fraction(1, 2), (1, 0): 3}), sc_inv(Q * 2 + Fraction(2, 3)), Q * 3 - 1, -2)
@settings(max_examples=150, deadline=None)
def test_coefficients_stay_int_or_nonintegral_fraction(a, b, den, n):
    for x in (a, b):
        assert_stored_forms(x)
        _kernel_result(-x, x)
        if invertible(x):
            _kernel_result(sc_inv(x), x)
            _kernel_result(sc_pow(x, n), x)
        _kernel_result(sc_pow(x, abs(n)), x)
    _kernel_result(a + a, a)  # halves add up to integers
    _kernel_result(a + b, a, b)
    _kernel_result(a - b, a, b)
    _kernel_result(b - a, a, b)
    _kernel_result(a * b, a, b)
    _kernel_result(b * a, a, b)
    # make() divides only by a unit times a polynomial in q, so b is not a divisor here
    _kernel_result(LaurentFrac.make(a, den), a, den)
    _kernel_result(LaurentFrac.make(b, den), b, den)
    _kernel_result(LaurentFrac.make(a, n or 2), a)  # an int denominator


def test_constant_numerator_is_a_fraction():
    x = sc_inv(Q + 1)
    assert type(x.num) is Fraction and x.num == 1
    assert scalar_to_json(x)["num"] == "1"


def test_stored_forms_of_named_values():
    assert Q.terms == {(1, 0): 1} and type(Q.terms[(1, 0)]) is int
    for x in (Q * Fraction(4, 2), Q * Fraction(1, 2) * 2, (Q + Fraction(1, 2)) + Fraction(1, 2),
              make_laurent({(1, 0): True, (0, 1): Fraction(6, 3)}), sc_inv(Q * 2 + 2),
              sc_inv(make_laurent({(1, 0): Fraction(1, 3)}))):
        assert_stored_forms(x)
    assert type((Q + Fraction(1, 2)) - Q) is Fraction
    assert type(Q * sc_inv(Q)) is Fraction
    with pytest.raises(TypeError):
        make_laurent({(1, 0): 0.5})


@given(monomials(), st.integers(-8, 8))
@example(Q, -3)
@example(D, 5)
@example(sc_pow(Q, 5) * sc_pow(D, -5), -2)  # the twist q^5 d^-5
@example(make_laurent({(1, 0): -1}), -3)
@example(make_laurent({(0, 1): Fraction(-1, 2)}), -3)  # a power with an integral coefficient
@example(make_laurent({(2, -1): Fraction(3, 2)}), 0)
@settings(max_examples=200, deadline=None)
def test_monomial_power_is_repeated_multiplication(m, n):
    # a one-term power is made in one step; the reference multiplies m (or sc_inv(m) for n < 0) |n| times
    assume(isinstance(m, Laurent))
    base, want = m if n >= 0 else sc_inv(m), Fraction(1)
    for _ in range(abs(n)):
        want = want * base
    got = m ** n
    assert got == want and type(got) is type(want)
    assert_stored_forms(got)  # equal values in stored form: the same stored coefficients


rational_points = st.builds(Fraction, st.integers(-7, 7).filter(bool), st.integers(1, 4))


@given(mixed_scalars(), mixed_scalars(), rational_points, rational_points)
@settings(max_examples=100, deadline=None)
def test_specialization_commutes_with_mixed_sum_and_product(a, b, qv, dv):
    subs = {"q": qv, "d": dv}
    try:
        sa, sb = specialize(a, subs), specialize(b, subs)
        s_sum, s_prod = specialize(a + b, subs), specialize(a * b, subs)
    except ZeroDivisionError:  # a denominator vanishes at this point
        assume(False)
    assert s_sum == sa + sb and type(s_sum) is Fraction
    assert s_prod == sa * sb and type(s_prod) is Fraction


def test_formal_sweep_columns_hold_stored_forms(monkeypatch):
    """Every operator column a formal sweep caches has its Laurent coefficients in stored form."""
    from toroidal_duality import duality
    from toroidal_duality.cli import run_verify
    from toroidal_duality.config import load_config

    made = []

    class Recorded(duality.DualityModule):
        def __init__(self, hmodule):
            super().__init__(hmodule)
            made.append(self)

    monkeypatch.setattr(duality, "DualityModule", Recorded)
    cfg = load_config(preset="poly", overrides={"symbolic": True, "probes": 1, "modes": 1})
    _, summary, _ = run_verify("toroidal", cfg)
    assert summary["status"] == "pass" and len(made) == 1
    columns = made[0]._cache
    assert columns and all(columns.values())
    formal = 0
    for column in columns.values():
        for items in column.values():
            for _key, c in items:
                assert_stored_forms(c)
                formal += isinstance(c, (Laurent, LaurentFrac))
    assert formal  # the sweep did reach Laurent coefficients


nonzero_mixed = mixed_rationals.filter(bool)


@st.composite
def q_factors(draw, min_terms):
    """A polynomial in q with nonnegative exponents and `min_terms` or more terms."""
    return make_laurent(draw(st.dictionaries(st.integers(0, 3), nonzero_mixed, min_size=min_terms, max_size=4)
                             .map(lambda t: {(k, 0): c for k, c in t.items()})))


def _num_den(r):
    return (r.num, r.den) if isinstance(r, LaurentFrac) else (r, Fraction(1))


@given(mixed_laurents(), q_factors(1), q_factors(2), rational_points, rational_points)
@example(Q * D - D * D, Q + 5, Q * Q - Q * 2 + 3, Fraction(1), Fraction(2))
@example(make_laurent({(-2, 1): 4, (0, -1): Fraction(2, 3)}), Q * 6 + 4, Q * Q + 1, Fraction(1), Fraction(1))
@settings(max_examples=150, deadline=None)
def test_quotient_by_a_q_polynomial_is_reduced_and_canonical(num, den, common, qv, dv):
    assume(not is_zero(num))
    r = LaurentFrac.make(num, den)
    assert LaurentFrac.make(common * num, common * den) == r
    rn, rd = _num_den(r)
    assert rn * den == num * rd
    assert_stored_forms(r)
    if isinstance(r, LaurentFrac):  # the canonical denominator
        assert all(e[1] == 0 for e in rd.terms) and min(e[0] for e in rd.terms) == 0
        assert not rd.is_unit()
        coeffs = list(rd.terms.values())
        assert all(type(c) is int for c in coeffs) and gcd(*coeffs) == 1
        assert rd.terms[max(rd.terms)] > 0  # the lead, at the highest power of q
    subs = {"q": qv, "d": dv}
    try:
        want = specialize(num, subs) / specialize(den, subs)
    except ZeroDivisionError:
        return
    assert specialize(r, subs) == want


@given(mixed_laurents(), mixed_laurents(), q_factors(2), q_factors(1))
@example(Q, Fraction(1), (Q + 1) * (Q * Q + 1), Fraction(1))  # the sum cancels the factor q + 1
@example(Q * D - D * D, D * D - Q * D, Q * Q + 1, Q + 2)  # the sum is zero
@example(Q * D, Q * Q * 2 - D, Q * 3 - 1, Q - 4)
@settings(max_examples=150, deadline=None)
def test_sum_over_an_equal_denominator_matches_the_general_formula(m1, m2, den, other):
    a, b = LaurentFrac.make(m1, den), LaurentFrac.make(m2, den)
    assume(isinstance(a, LaurentFrac) and isinstance(b, LaurentFrac) and a.den == b.den)
    general = LaurentFrac.make(a.num * b.den + b.num * a.den, a.den * b.den)
    got = a + b
    assert got == general and type(got) is type(general)
    assert scalar_to_json(got) == scalar_to_json(general)
    assert_stored_forms(got)
    # a sum with a different denominator still takes the general formula
    c = LaurentFrac.make(m2, other * den)
    if isinstance(c, LaurentFrac) and c.den != a.den:
        assert a + c == LaurentFrac.make(a.num * c.den + c.num * a.den, a.den * c.den)


def test_quotient_by_a_non_q_polynomial_raises_at_once():
    # (32q^-1 d^3 - 16q + 208q^-2 d)/(47q - 24) over (42q^3 d^-3 - 15)/(3q - 5), a quotient on
    # which a multivariate gcd once spent minutes, with its third symbol y folded into d
    a = LaurentFrac.make(make_laurent({(-1, 3): 32, (1, 0): -16, (-2, 1): 208}), Q * 47 - 24)
    b = LaurentFrac.make(make_laurent({(3, -3): 42, (0, 0): -15}), Q * 3 - 5)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="polynomial in q"):
        LaurentFrac.make(a, b)
    assert time.perf_counter() - t0 < 1
    for den in (D + 1, D * D - D * 3, D * D + 2, Q + D, Q * D + 1):
        with pytest.raises(ValueError, match="polynomial in q"):
            LaurentFrac.make(Q + 1, den)
        with pytest.raises(ValueError, match="polynomial in q"):
            sc_inv(den)
        with pytest.raises(ValueError, match="polynomial in q"):
            sc_inv(LaurentFrac.make(den, Q * Q + 1))  # a quotient whose numerator uses d
    # a unit times a polynomial in q divides, the unit as a Laurent monomial
    assert LaurentFrac.make(D, D * D * (Q + 1)) == sc_inv(D * (Q + 1))


# Fraction units that are not roots of unity, as `Params` takes them
unit_rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)).filter(lambda x: x not in (0, 1, -1))
table_exponents = st.tuples(st.integers(-12, 12), st.integers(-12, 12))


@given(st.one_of(st.tuples(unit_rationals, unit_rationals), st.just((Q, D))),
       st.lists(table_exponents, min_size=1, max_size=16))
@settings(max_examples=120, deadline=None)
def test_monomial_table_entries_are_the_powers(qd_pair, exps):
    q, d = qd_pair
    table = monomial_table(q, d)
    one = table(0, 0)
    assert one == Fraction(1) and type(one) is Fraction
    for a, b in exps:
        want = sc_mul(sc_pow(q, a), sc_pow(d, b))
        got = table(a, b)
        assert got == want and type(got) is type(want)
        # independently: the stdlib powers, or the formal monomial q^a d^b
        assert got == (q ** a * d ** b if q is not Q else make_laurent({(a, b): 1}))
        assert table(a, b) is got  # each entry is made once
