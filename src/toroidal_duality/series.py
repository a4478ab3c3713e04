"""
One-variable series utilities for the rational multipliers that drive the
Cartan-type currents.

theta_expand(m, ...) expands (q^m z - 1)/(z - q^m) by long division, either
in powers of 1/z ("at-infinity", used by the + current) or in powers of z
("at-zero", used by the - current).  Nothing here assumes a closed form for
the coefficients: the expansion is literally iterated division, so it can
serve as its own oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalars import Scalar, is_unit, is_zero, sc_inv, sc_mul, sc_pow

AT_INFINITY = "at-infinity"
AT_ZERO = "at-zero"


@dataclass(frozen=True)
class SeriesExpansion:
    """Truncated expansion; coeffs[r] multiplies z^-r (at-infinity) or z^r (at-zero)."""

    direction: str
    coeffs: tuple[Scalar, ...]
    order: int

    def __post_init__(self):
        assert self.direction in (AT_INFINITY, AT_ZERO)
        assert len(self.coeffs) == self.order + 1


def divide_series(num, den, direction, order):
    """
    Long division of num/den up to `order`, as dicts {z-exponent: Scalar}.

    at-zero: plain power-series division (den needs a nonzero valuation
    coefficient).  at-infinity: the same after z -> 1/z.
    """
    assert order >= 0
    assert den, "zero denominator"
    if direction == AT_INFINITY:
        num = {-e: c for e, c in num.items()}
        den = {-e: c for e, c in den.items()}

    v_den = min(den)
    if num:
        assert min(num) >= v_den, "expansion is not a power series in this direction"

    # num = den * quotient forces the recurrence
    #   num[v_den + r] = sum_{j <= r} den[v_den + r - j] * quotient[j]
    lead = den[v_den]
    assert is_unit(lead)
    lead_inv = sc_inv(lead)
    out = []
    for r in range(order + 1):
        acc = num.get(v_den + r, Fraction(0))
        for j in range(r):
            dc = den.get(v_den + (r - j), None)
            if dc is not None:
                acc = acc - sc_mul(dc, out[j])
        out.append(sc_mul(acc, lead_inv))
    return out


def theta_expand(m, direction, order, q):
    """
    Expansion of (q^m z - 1)/(z - q^m) at infinity or zero, to `order`.

    `q` may be the formal symbol or a specialized rational.
    """
    assert order >= 0
    qm = sc_pow(q, m)
    num = {1: qm, 0: Fraction(-1)}
    den = {1: Fraction(1), 0: sc_mul(Fraction(-1), qm)}
    num = {e: c for e, c in num.items() if not is_zero(c)}
    den = {e: c for e, c in den.items() if not is_zero(c)}
    coeffs = divide_series(num, den, direction, order)
    return SeriesExpansion(direction, tuple(coeffs), order)
