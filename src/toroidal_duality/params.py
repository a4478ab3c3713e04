"""
Parameter block shared by every module family.

Vertices of the cyclic diagram are [n] = {0, ..., n}; tensor length is l.
The duality functor pins the twist parameter to x = q^(n+1) d^-(n+1) and
y = c = 1, and every module the workbench builds is a duality module.
Specialized parameters must keep q away from roots of unity, which for
rationals just means q not in {0, 1, -1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalars import D, Q, Scalar, is_unit, sc_mul, sc_pow


class ParameterError(ValueError):
    """A parameter block violating the duality constraints."""


def _is_one(a):
    return a == Fraction(1)


def _root_of_unity_risk(a):
    return isinstance(a, (int, Fraction)) and a in (0, 1, -1)


@dataclass(frozen=True)
class Params:
    n: int
    l: int
    q: Scalar
    d: Scalar
    x: Scalar = None
    y: Scalar = Fraction(1)
    c: Scalar = Fraction(1)

    def __post_init__(self):
        if self.l < 1:
            raise ParameterError("tensor length l must be >= 1")
        if not is_unit(self.q) or not is_unit(self.d):
            raise ParameterError("q and d must be units")
        if self.x is None:
            object.__setattr__(self, "x", self.derived_x())
        if self.n < 2:
            raise ParameterError("cyclic diagram needs n >= 2")
        if self.l + 1 >= self.n:
            raise ParameterError(f"duality mode requires l + 1 < n (got l={self.l}, n={self.n})")
        if _root_of_unity_risk(self.q):
            raise ParameterError("specialized q must avoid roots of unity (q not in {0, 1, -1})")
        if not _is_one(self.y) or not _is_one(self.c):
            raise ParameterError("duality mode fixes y = c = 1")
        if self.x != self.derived_x():
            raise ParameterError("duality mode fixes x = q^(n+1) * d^-(n+1)")

    def derived_x(self):
        return sc_mul(sc_pow(self.q, self.n + 1), sc_pow(self.d, -(self.n + 1)))

    def alpha(self, i):
        """Spectral scale q^(n+1-i) d^i of the vertex-i currents."""
        return sc_mul(sc_pow(self.q, self.n + 1 - i), sc_pow(self.d, i))


def symbolic_params(n, l):
    """Formal q, d parameter block."""
    return Params(n=n, l=l, q=Q, d=D)


def specialized_params(n, l, q, d):
    return Params(n=n, l=l, q=Fraction(q), d=Fraction(d))
