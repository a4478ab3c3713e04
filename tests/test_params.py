"""Parameter-block constraints."""

from fractions import Fraction

import pytest

from toroidal_duality.params import ParameterError, specialized_params, symbolic_params
from toroidal_duality.scalars import D, Q, monomials, sc_pow


def test_derived_twist():
    p = specialized_params(n=4, l=2, q=2, d=3)
    assert p.x == Fraction(32, 243)


def test_symbolic_twist():
    p = symbolic_params(n=3, l=1)
    assert p.x == sc_pow(Q, 4) * sc_pow(D, -4)


def test_duality_mode_rejects_small_n_and_big_l():
    with pytest.raises(ParameterError):
        specialized_params(n=4, l=3, q=2, d=3)
    with pytest.raises(ParameterError):
        specialized_params(n=1, l=1, q=2, d=3)


def test_duality_mode_rejects_root_of_unity_q():
    for bad in (1, -1, 0):
        with pytest.raises(ParameterError):
            specialized_params(n=4, l=2, q=bad, d=3)


def test_alpha_scale():
    # the spectral scale alpha_i = q^(n+1-i) d^i is the table entry (n+1-i, i)
    p = specialized_params(n=4, l=2, q=2, d=3)
    qd = monomials(p.q, p.d)
    assert qd(4, 1) == Fraction(2 ** 4 * 3)
    assert qd(1, 4) == Fraction(2 * 3 ** 4)
