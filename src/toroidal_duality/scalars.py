"""
Exact coefficient arithmetic.

A scalar is one of three progressively wider kinds:

  * ``fractions.Fraction``  -- arbitrary-precision rational,
  * ``Laurent``             -- Laurent polynomial in the formal symbols
                               q, d with rational coefficients,
  * ``LaurentFrac``         -- quotient of two Laurent polynomials.

Every operation returns the *narrowest* kind that can represent the
result exactly (a Laurent polynomial that happens to be constant comes
back as a Fraction, a quotient with unit denominator comes back as a
Laurent polynomial).  Aggressive demotion keeps specialized runs (q, d
given as rationals) entirely inside Fraction arithmetic and makes
structural equality a complete equality test.

Canonical forms: no zero coefficients are stored; a Laurent coefficient
is an ``int`` when integral and a reduced ``Fraction`` only when it is
not, so formal runs, whose coefficients are integers, multiply machine
ints (a constant that demotes out of a Laurent is still a Fraction, and
every division goes through Fraction, so no float arises); a power of a
one-term Laurent c q^a d^b is made in one step as c^n q^(an) d^(bn), its
coefficient stored by the same rule (every Laurent power the workbench
takes is of such a monomial: q, d or the twist); a LaurentFrac
denominator is a non-unit polynomial in q alone with nonnegative
exponents, integer coprime coefficients, positive leading coefficient and
no common factor with the numerator.  Every non-unit the workbench
divides by (the q-integers of the symmetrizers and the braid operators)
is a polynomial in q, and d enters only as a unit; so a quotient takes
as its denominator only a unit times a polynomial in q, and the common
factor is cleared by a Euclidean gcd over Q[q] with each group of
numerator terms that share their d exponent.

A rational scalar is always a reduced ``Fraction`` with a positive
denominator, also where the Fraction fast paths make it: ``sc_mul``,
``sc_neg`` and ``hecke.merge_vec`` compute on the integer numerators and
denominators when every operand is a Fraction, take the same gcds as the
stdlib operators, and fill a ``bare_fraction()`` with the reduced pair.
Values, hashes and printed forms are those of ``Fraction(n, d)``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from math import gcd

SYMBOLS = ("q", "d")
_ZEXP = (0, 0)  # the exponent (a, b) of q^a d^b

# A Fraction whose two slots, `_numerator` and `_denominator`, the caller sets
# to a reduced pair with a positive denominator (see the docstring above).
bare_fraction = partial(object.__new__, Fraction)


def _grlex_key(exp):
    return (sum(exp), exp)


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"not a rational coefficient: {c!r}")


def _coef(c):
    """The stored form of a rational coefficient: an int when integral, else a Fraction."""
    if c.__class__ is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):  # bool
        return int(c)
    raise TypeError(f"not a rational coefficient: {c!r}")


def _settle(terms):
    """Demote the integral Fraction coefficients of a terms dict in place; return it."""
    for exp, c in terms.items():
        if c.__class__ is not int and c.denominator == 1:
            terms[exp] = c.numerator
    return terms


def _narrowest(terms):
    """A terms dict of stored, nonzero coefficients as a scalar: a constant demotes to a Fraction."""
    if not terms:
        return Fraction(0)
    if len(terms) == 1 and _ZEXP in terms:
        return _as_fraction(terms[_ZEXP])
    return Laurent(terms)


def make_laurent(terms):
    """Normalize a {exponent: coefficient} dict into a scalar."""
    clean = {}
    for exp, c in terms.items():
        c = _coef(c)
        if c:
            clean[exp] = c
    return _narrowest(clean)


class Laurent:
    """Laurent polynomial in q, d over the rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        # `terms` is assumed normalized; use make_laurent from outside.
        self.terms = terms

    def _lift(self, other):
        if isinstance(other, Laurent):
            return other
        if isinstance(other, (int, Fraction)):
            c = _coef(other)
            return Laurent({_ZEXP: c}) if c else Laurent({})
        return None

    def __add__(self, other):
        if isinstance(other, LaurentFrac):
            return other.__radd__(self)
        other = self._lift(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for exp, c in other.terms.items():  # merge, demoting only the sums it makes
            s = terms.get(exp, 0) + c
            if not s:
                del terms[exp]
            elif s.__class__ is int or s.denominator != 1:
                terms[exp] = s
            else:
                terms[exp] = s.numerator
        return _narrowest(terms)

    __radd__ = __add__

    def __neg__(self):
        return Laurent({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Laurent):
            if len(other.terms) == 1:
                return self._shift(other)
            if len(self.terms) == 1:
                return other._shift(self)
        elif isinstance(other, (int, Fraction)):
            other = _coef(other)
            if other == 1:
                return self
            if not other:
                return Fraction(0)
            return Laurent(_settle({e: c * other for e, c in self.terms.items()}))
        elif isinstance(other, LaurentFrac):
            return other.__rmul__(self)
        else:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = (e1[0] + e2[0], e1[1] + e2[1])
                s = terms.get(exp, 0) + c1 * c2
                if s:
                    terms[exp] = s
                else:
                    del terms[exp]
        return _narrowest(_settle(terms))

    __rmul__ = __mul__

    def _shift(self, mono):
        """Product with a single-term Laurent `mono`: exponents move, nothing merges."""
        (e2, c2), = mono.terms.items()
        unit = c2 == 1
        terms = {
            (e[0] + e2[0], e[1] + e2[1]): c if unit else c * c2
            for e, c in self.terms.items()
        }
        return _narrowest(terms if unit else _settle(terms))

    def __pow__(self, n):
        if len(self.terms) == 1:  # a monomial c q^a d^b: c^n q^(an) d^(bn), in one step
            if not n:
                return Fraction(1)
            ((a, b), c), = self.terms.items()
            return Laurent({(a * n, b * n): c ** n if n > 0 else _coef(Fraction(1, c) ** -n)})
        if n < 0:
            return LaurentFrac.make(Fraction(1), self ** (-n))
        out = Fraction(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        return isinstance(other, Laurent) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def is_unit(self):
        return len(self.terms) == 1

    def __repr__(self):
        bits = []
        for exp in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[exp]
            mono = "*".join(
                f"{s}^{e}" if e != 1 else s
                for s, e in zip(SYMBOLS, exp)
                if e
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits) if bits else "0"


def _qlist(row):
    """A {q exponent: coefficient} dict as (its lowest exponent, the coefficients from there up)."""
    lo = min(row)
    coefs = [0] * (max(row) - lo + 1)
    for k, c in row.items():
        coefs[k - lo] = c
    return lo, coefs


def _qdivmod(a, b):
    """Quotient and remainder over Q of coefficient lists in q, lowest power first, b's last entry nonzero."""
    a = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    for i in range(len(quo) - 1, -1, -1):
        c = quo[i] = a[i + len(b) - 1] if lead == 1 else Fraction(a[i + len(b) - 1], lead)  # ints stay ints
        if c:
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    rem = a[:len(b) - 1]
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem


class LaurentFrac:
    """Reduced quotient of Laurent polynomials (denominator never a unit)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        # assumed reduced; use LaurentFrac.make from outside
        self.num = num
        self.den = den

    @staticmethod
    def make(num, den):
        """
        Build num/den in canonical form, demoting where possible.  A non-unit
        denominator must be a unit times a polynomial in q (the q-integers of
        the symmetrizers and braid operators); any other raises ValueError.
        """
        if isinstance(den, (int, Fraction)):
            return sc_mul(num, sc_inv(_as_fraction(den)))
        if isinstance(num, LaurentFrac) or isinstance(den, LaurentFrac):
            return sc_mul(num, sc_inv(den))
        if not den:
            raise ZeroDivisionError("zero denominator")
        if is_zero(num):
            return Fraction(0)
        if den.is_unit():
            return num * sc_inv(den)
        ds = {e[1] for e in den.terms}
        if len(ds) != 1:
            raise ValueError(f"a quotient divides only by a unit times a polynomial in q, not by {den!r}")
        ed, = ds

        # split the unit q^low d^ed off den and num; num becomes one row in q per d exponent
        low, dcoefs = _qlist({e[0]: c for e, c in den.terms.items()})
        rows = {}
        for e, c in (num.terms if isinstance(num, Laurent) else {_ZEXP: num}).items():
            rows.setdefault(e[1] - ed, {})[e[0] - low] = c
        rows = {key: _qlist(row) for key, row in rows.items()}

        # a common factor is a polynomial in q, so it divides every row; Euclid over Q[q]
        g = dcoefs
        for _, coefs in rows.values():
            if len(g) == 1:
                break
            r = _qdivmod(coefs, g)[1]  # mostly g divides the row, and this one division shows it
            while r:
                g, r = r, _qdivmod(g, r)[1]
        if len(g) > 1:
            dcoefs = _qdivmod(dcoefs, g)[0]
            rows = {key: (lo, _qdivmod(coefs, g)[0]) for key, (lo, coefs) in rows.items()}

        # denominator normalization: integer coprime coefficients, positive lead
        lcm = 1
        g = 0
        for c in dcoefs:
            lcm = lcm * c.denominator // gcd(lcm, c.denominator)
            g = gcd(g, c.numerator)
        scale = _coef(Fraction(lcm, g))  # an int scale keeps int coefficients ints
        if dcoefs[-1] * scale < 0:
            scale = -scale
        num = make_laurent({
            (lo + i, b): c * scale
            for b, (lo, coefs) in rows.items() for i, c in enumerate(coefs)
        })  # a constant numerator demotes to a Fraction
        if len(dcoefs) == 1:  # the whole denominator cancelled; scale is 1/its constant
            return num
        return LaurentFrac(num, Laurent({(i, 0): (c * scale).numerator for i, c in enumerate(dcoefs) if c}))

    def _lift(self, other):
        if isinstance(other, LaurentFrac):
            return other
        if isinstance(other, (int, Fraction, Laurent)):
            return LaurentFrac(other, Fraction(1))
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:  # most sums: no square of the denominator for `make` to divide back out
            return LaurentFrac.make(self.num + o.num, self.den)
        return LaurentFrac.make(
            self.num * o.den + o.num * self.den,
            sc_mul(self.den, o.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return LaurentFrac(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return LaurentFrac.make(sc_mul(self.num, o.num), sc_mul(self.den, o.den))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return sc_inv(self) ** (-n)
        out = Fraction(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return (
            isinstance(other, LaurentFrac)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return True  # zero always demotes to Fraction(0)

    def is_unit(self):
        return True

    def __repr__(self):
        return f"({self.num!r}) / ({self.den!r})"


Scalar = Fraction | Laurent | LaurentFrac

Q = Laurent({(1, 0): 1})
D = Laurent({(0, 1): 1})
ONE, MINUS_ONE = Fraction(1), Fraction(-1)


def sc_mul(a, b):
    if a.__class__ is Fraction:
        if b.__class__ is not Fraction:
            return b * a  # the formal operand's own __mul__, not Fraction.__mul__'s fallback first
        an, ad, bn, bd = a._numerator, a._denominator, b._numerator, b._denominator
        g1, g2 = gcd(an, bd), gcd(bn, ad)
        out = bare_fraction()
        out._numerator, out._denominator = (an // g1) * (bn // g2), (ad // g2) * (bd // g1)
        return out
    return a * b


def sc_neg(a):
    if a.__class__ is Fraction:
        out = bare_fraction()
        out._numerator, out._denominator = -a._numerator, a._denominator
        return out
    return -a


def is_zero(a):
    # every scalar kind is false exactly when zero (LaurentFrac never is)
    return not a


def is_unit(a):
    if isinstance(a, (int, Fraction)):
        return a != 0
    return a.is_unit()


def sc_inv(a):
    if isinstance(a, (int, Fraction)):
        a = _as_fraction(a)
        if not a:
            raise ZeroDivisionError("division by zero")
        return 1 / a
    if isinstance(a, Laurent):
        if not a.terms:
            raise ZeroDivisionError("division by zero")
        if a.is_unit():
            (exp, c), = a.terms.items()
            return make_laurent({tuple(-e for e in exp): Fraction(1, c)})
        return LaurentFrac.make(Fraction(1), a)
    if isinstance(a, LaurentFrac):
        return LaurentFrac.make(a.den, a.num)
    raise TypeError(f"not a scalar: {a!r}")


def sc_pow(a, n):
    if isinstance(a, (int, Fraction)):
        return _as_fraction(a) ** n
    return a ** n


def monomials(q, d):
    """
    The monomial table of one parameter pair: a cached function (a, b) ->
    q^a d^b, each entry made once by `sc_pow` and `sc_mul`.  It closes over
    q and d only, so a module that holds it makes no reference cycle.
    """
    return cache(lambda a, b: sc_mul(sc_pow(q, a), sc_pow(d, b)))


def scalar_to_json(a):
    if isinstance(a, (int, Fraction)):
        a = _as_fraction(a)
        return str(a) if a.denominator != 1 else str(a.numerator)
    if isinstance(a, Laurent):
        return {
            # [a, b, 0]: the 0 keeps the slot of the retired y exponent, which the pinned formal digests hold
            "laurent": [
                [[*exp, 0], scalar_to_json(a.terms[exp])]
                for exp in sorted(a.terms, key=_grlex_key)
            ]
        }
    if isinstance(a, LaurentFrac):
        return {"num": scalar_to_json(a.num), "den": scalar_to_json(a.den)}
    raise TypeError(f"not a scalar: {a!r}")
