"""
The rational multiplier of the Cartan-type currents, theta_m(u) =
(q^m u - 1)/(u - q^m), expanded in closed form.

At infinity, (q^m u - 1)/(u - q^m) = (q^m - u^-1) * sum_j q^(m j) u^-j, so
the u^0 coefficient is q^m and the u^-r one, r >= 1, is q^(m(r+1)) - q^(m(r-1)).
The expansion at zero needs nothing more: theta_m(1/u) = theta_-m(u), so
theta_m = sum_r c_r u^r at zero where sum_r c_r u^-r is theta_-m at infinity.
"""

from __future__ import annotations

from .scalars import sc_pow


def theta_expand(m, order, q):
    """The coefficients c_0..c_order of theta_m = sum_r c_r u^-r at infinity; `q` may be formal."""
    return (sc_pow(q, m),) + tuple(sc_pow(q, m * (r + 1)) - sc_pow(q, m * (r - 1)) for r in range(1, order + 1))
