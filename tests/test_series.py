"""The theta expansion: the defining identity, the inverse pair and frozen values."""

from fractions import Fraction

import pytest

from toroidal_duality.scalars import Q, sc_mul, sc_pow
from toroidal_duality.series import theta_expand

QS = (Q, Fraction(2), Fraction(-5, 7))


def test_theta_zero_is_constant_one():
    coeffs = theta_expand(0, 3, Q)
    assert coeffs == (Fraction(1), Fraction(0), Fraction(0), Fraction(0))


def test_theta_frozen_at_infinity_order_two():
    # (q z - 1)/(z - q) in powers of 1/z
    coeffs = theta_expand(1, 2, Q)
    q2m1 = Q * Q - 1
    assert coeffs == (Q, q2m1, q2m1 * Q)


def test_theta_frozen_at_zero_order_one():
    # m = -1 at zero is m = 1 at infinity: (q, q^2 - 1)
    coeffs = theta_expand(1, 1, Q)
    assert coeffs == (Q, Q * Q - 1)


@pytest.mark.parametrize("at, m, q", [
    pytest.param(at, m, q, id=f"{at}-{m}" if q is Q else f"{at}-{m}-q={q}")
    for q in QS for at in ("at-infinity", "at-zero") for m in range(-3, 4)
])
def test_multiplying_back_the_denominator(at, m, q):
    # (z - q^m) * expansion == q^m z - 1, coefficient by coefficient to order K;
    # theta_m at zero is theta_-m at infinity
    K = 8
    coeffs = theta_expand(m if at == "at-infinity" else -m, K, q)
    qm = sc_pow(q, m)
    for r in range(K + 1):
        prev = coeffs[r - 1] if r >= 1 else Fraction(0)
        if at == "at-infinity":
            # coefficient of z^(1-r) in (z - q^m) Sum c_r z^-r is c_r - q^m c_{r-1}
            got = coeffs[r] - sc_mul(qm, prev)
            want = qm if r == 0 else (Fraction(-1) if r == 1 else Fraction(0))
        else:
            # coefficient of z^r in (z - q^m) Sum c_r z^r is c_{r-1} - q^m c_r
            got = prev - sc_mul(qm, coeffs[r])
            want = Fraction(-1) if r == 0 else (q ** m if r == 1 else Fraction(0))
        assert got == want, (m, at, r)


def test_theta_inverse_pair():
    # theta_m and theta_{-m} are reciprocal series, at infinity and (the pair swapped) at zero
    K = 6
    for q in QS:
        for m in range(-3, 4):
            a = theta_expand(m, K, q)
            b = theta_expand(-m, K, q)
            for r in range(K + 1):
                conv = sum((a[j] * b[r - j] for j in range(r + 1)), Fraction(0))
                assert conv == (Fraction(1) if r == 0 else Fraction(0)), (q, m, r)


def test_theta_specialized_matches_symbolic():
    from toroidal_duality.scalars import specialize

    for m in (-2, 1):
        sym = theta_expand(m, 5, Q)
        spec = theta_expand(m, 5, Fraction(2))
        for cs, cv in zip(sym, spec):
            assert specialize(cs, {"q": Fraction(2)}) == cv
