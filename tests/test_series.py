"""Series utilities: long-division oracle coherence and frozen expansions."""

from fractions import Fraction

import pytest

from toroidal_duality.scalars import Q, sc_mul, sc_pow
from toroidal_duality.series import AT_INFINITY, AT_ZERO, theta_expand


def test_theta_zero_is_constant_one():
    for direction in (AT_INFINITY, AT_ZERO):
        coeffs = theta_expand(0, direction, 3, Q)
        assert coeffs == (Fraction(1), Fraction(0), Fraction(0), Fraction(0))


def test_theta_frozen_at_infinity_order_two():
    # long-division oracle output for (q z - 1)/(z - q) in powers of 1/z
    coeffs = theta_expand(1, AT_INFINITY, 2, Q)
    q2m1 = Q * Q - 1
    assert coeffs == (Q, q2m1, q2m1 * Q)


def test_theta_frozen_at_zero_order_one():
    # oracle output for m = -1 at zero: (q, q^2 - 1)
    coeffs = theta_expand(-1, AT_ZERO, 1, Q)
    assert coeffs == (Q, Q * Q - 1)


@pytest.mark.parametrize("m", [-2, -1, 0, 1, 2])
@pytest.mark.parametrize("direction", [AT_INFINITY, AT_ZERO])
def test_multiplying_back_the_denominator(m, direction):
    # (z - q^m) * expansion == q^m z - 1, coefficient by coefficient to order K
    K = 8
    coeffs = theta_expand(m, direction, K, Q)
    qm = sc_pow(Q, m)
    for r in range(K + 1):
        prev = coeffs[r - 1] if r >= 1 else Fraction(0)
        if direction == AT_INFINITY:
            # coefficient of z^(1-r) in (z - q^m) Sum c_r z^-r is c_r - q^m c_{r-1}
            got = coeffs[r] - sc_mul(qm, prev)
            want = qm if r == 0 else (Fraction(-1) if r == 1 else Fraction(0))
        else:
            # coefficient of z^r in (z - q^m) Sum c_r z^r is c_{r-1} - q^m c_r
            got = prev - sc_mul(qm, coeffs[r])
            want = Fraction(-1) if r == 0 else (Q ** m if r == 1 else Fraction(0))
        assert got == want, (m, direction, r)


def test_theta_inverse_pair():
    # theta_m and theta_{-m} are reciprocal series
    K = 6
    for direction in (AT_INFINITY, AT_ZERO):
        a = theta_expand(2, direction, K, Q)
        b = theta_expand(-2, direction, K, Q)
        for r in range(K + 1):
            conv = sum((a[j] * b[r - j] for j in range(r + 1)), Fraction(0))
            assert conv == (Fraction(1) if r == 0 else Fraction(0))


def test_theta_specialized_matches_symbolic():
    from toroidal_duality.scalars import specialize

    for m in (-2, 1):
        sym = theta_expand(m, AT_INFINITY, 5, Q)
        spec = theta_expand(m, AT_INFINITY, 5, Fraction(2))
        for cs, cv in zip(sym, spec):
            assert specialize(cs, {"q": Fraction(2)}) == cv

