"""
Exact coefficient arithmetic.

A scalar is one of three progressively wider kinds:

  * ``fractions.Fraction``  -- arbitrary-precision rational,
  * ``Laurent``             -- Laurent polynomial in the formal symbols
                               q, d, y with rational coefficients,
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
every division goes through Fraction, so no float arises); a LaurentFrac
denominator is a non-unit polynomial with nonnegative exponents, integer
coprime coefficients, positive leading coefficient under graded-lex
order, and no common factor with the numerator (cleared by a
multivariate polynomial gcd).

A rational scalar is always a reduced ``Fraction`` with a positive
denominator, also where the Fraction fast paths make it: ``sc_mul``,
``sc_neg`` and ``hecke.merge_vec`` compute on the integer numerators and
denominators when every operand is a Fraction, take the same gcds as the
stdlib operators, and fill a ``bare_fraction()`` with the reduced pair.
Values, hashes and printed forms are those of ``Fraction(n, d)``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd

SYMBOLS = ("q", "d", "y")
_NVARS = len(SYMBOLS)
_ZEXP = (0, 0, 0)

Exponent = tuple[int, int, int]

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
    """Laurent polynomial in q, d, y over the rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        # `terms` is assumed normalized; use make_laurent from outside.
        self.terms = terms

    @staticmethod
    def var(name, power=1):
        i = SYMBOLS.index(name)
        exp = tuple(power if k == i else 0 for k in range(_NVARS))
        return Laurent({exp: 1})

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
                exp = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
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
            (e[0] + e2[0], e[1] + e2[1], e[2] + e2[2]): c if unit else c * c2
            for e, c in self.terms.items()
        }
        return _narrowest(terms if unit else _settle(terms))

    def __pow__(self, n):
        if n < 0:
            return sc_inv(self) ** (-n) if self.is_unit() else LaurentFrac.make(Fraction(1), self ** (-n))
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

    def leading(self):
        exp = max(self.terms, key=_grlex_key)
        return exp, self.terms[exp]

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


def _lift(x):
    """Force a nonzero scalar into raw Laurent shape (no demotion)."""
    if isinstance(x, Laurent):
        return x
    return Laurent({_ZEXP: _coef(x)})


def _monomial_content(lp):
    """Split off the unit monomial so remaining exponents are >= 0 with a zero minimum."""
    mins = tuple(min(e[k] for e in lp.terms) for k in range(_NVARS))
    if mins == _ZEXP:
        return _ZEXP, lp
    shifted = {
        (e[0] - mins[0], e[1] - mins[1], e[2] - mins[2]): c
        for e, c in lp.terms.items()
    }
    return mins, Laurent(shifted)


def _vars_used(lp):
    return tuple(k for k in range(_NVARS) if any(e[k] for e in lp.terms))


def _terms(p):
    return p.terms if isinstance(p, Laurent) else ({_ZEXP: p} if p else {})


def _collect(p, syms):
    """p grouped by its exponents in `syms`: {those exponents: coefficient free of syms}."""
    groups = {}
    for e, c in _terms(p).items():
        key = tuple(e[k] for k in syms)
        groups.setdefault(key, {})[tuple(0 if k in syms else x for k, x in enumerate(e))] = c
    return {key: make_laurent(t) for key, t in groups.items()}


def _exact_div(a, b):
    """a / b for polynomials with b dividing a: long division on lex-leading terms."""
    tb = _terms(b)
    eb = max(tb)
    out = Fraction(0)
    while a:
        ta = _terms(a)
        ea = max(ta)
        exp = tuple(x - y for x, y in zip(ea, eb))
        assert min(exp) >= 0, "inexact division"
        m = make_laurent({exp: Fraction(ta[ea], tb[eb])})
        out = out + m
        a = a - m * b
    return out


def _content(p, k, rest):
    """gcd in Q[rest] of the coefficients of p as a polynomial in symbol k."""
    g = Fraction(0)
    for c in _collect(p, (k,)).values():
        g = _gcd(g, c, rest)
    return g


def _primitive(p, k, rest):
    """p over its content, scaled to lex-leading coefficient 1."""
    p = _exact_div(p, _content(p, k, rest))
    t = _terms(p)
    return p * Fraction(1, t[max(t)])


def _prem(a, b, k):
    """Pseudo-remainder of a by b as polynomials in symbol k."""
    (db,), lead_b = max(_collect(b, (k,)).items())
    while a:
        (da,), lead_a = max(_collect(a, (k,)).items())
        if da < db:
            break
        shift = make_laurent({tuple(da - db if j == k else 0 for j in range(_NVARS)): Fraction(1)})
        a = a * lead_b - lead_a * shift * b
    return a


def _gcd(a, b, syms):
    """A gcd of polynomials a, b in Q[syms], by primitive remainder sequences."""
    if not a or not b:
        return a or b
    if isinstance(a, Fraction) or isinstance(b, Fraction):
        return Fraction(1)
    k, rest = syms[0], syms[1:]
    c = _gcd(_content(a, k, rest), _content(b, k, rest), rest)
    a, b = _primitive(a, k, rest), _primitive(b, k, rest)
    while b:
        r = _prem(a, b, k)
        a, b = b, (_primitive(r, k, rest) if r else Fraction(0))
    return c * a


class LaurentFrac:
    """Reduced quotient of Laurent polynomials (denominator never a unit)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        # assumed reduced; use LaurentFrac.make from outside
        self.num = num
        self.den = den

    @staticmethod
    def make(num, den):
        """Build num/den in canonical form, demoting where possible."""
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

        num = _lift(num)
        mono, den = _monomial_content(den)
        num = _lift(num * make_laurent({tuple(-m for m in mono): Fraction(1)}))

        # a common factor lies in the denominator's symbols, so it divides
        # each coefficient of the numerator over the other symbols
        nmono, nshift = _monomial_content(num)
        dvars = _vars_used(den)
        others = tuple(k for k in range(_NVARS) if k not in dvars)
        g = den
        for c in _collect(nshift, others).values():
            g = _gcd(g, c, dvars)
            if isinstance(g, Fraction):
                break
        if not isinstance(g, Fraction):
            den = _exact_div(den, g)
            num = sc_mul(_exact_div(nshift, g), make_laurent({nmono: Fraction(1)}))
            if isinstance(den, Fraction) or den.is_unit():
                return sc_mul(num, sc_inv(den))
            num = _lift(num)

        # denominator normalization: integer coprime coefficients, positive grlex lead
        denoms = [c.denominator for c in den.terms.values()]
        numers = [c.numerator for c in den.terms.values()]
        lcm = 1
        for v in denoms:
            lcm = lcm * v // gcd(lcm, v)
        g = 0
        for v in numers:
            g = gcd(g, v)
        scale = Fraction(lcm, g)
        if den.leading()[1] * scale < 0:
            scale = -scale
        den = Laurent({e: (c * scale).numerator for e, c in den.terms.items()})  # scale clears every denominator
        num = sc_mul(_narrowest(num.terms), scale)  # a constant numerator demotes to a Fraction
        if isinstance(num, Fraction) and not num:
            return num
        return LaurentFrac(num, den)

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

Q = Laurent.var("q")
D = Laurent.var("d")
YSYM = Laurent.var("y")


def sc_mul(a, b):
    if a.__class__ is Fraction and b.__class__ is Fraction:
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
        a = _as_fraction(a)
        if n < 0 and not a:
            raise ZeroDivisionError("division by zero")
        return a ** n
    return a ** n


def specialize(a, subs):
    """Substitute rationals for formal symbols; `subs` maps symbol name -> Fraction."""
    if isinstance(a, (int, Fraction)):
        return _as_fraction(a)
    if isinstance(a, Laurent):
        vals = [subs.get(s) for s in SYMBOLS]
        out = Fraction(0)
        for exp, c in a.terms.items():
            term = c
            for v, e in zip(vals, exp):
                if e:
                    if v is None:
                        raise ValueError("substitution missing for a used symbol")
                    term = term * _as_fraction(v) ** e
            out += term
        return out
    if isinstance(a, LaurentFrac):
        den = specialize(a.den, subs)
        if not den:
            raise ZeroDivisionError("denominator vanishes under substitution")
        return specialize(a.num, subs) / den
    raise TypeError(f"not a scalar: {a!r}")


def scalar_to_json(a):
    if isinstance(a, (int, Fraction)):
        a = _as_fraction(a)
        return str(a) if a.denominator != 1 else str(a.numerator)
    if isinstance(a, Laurent):
        return {
            "laurent": [
                [list(exp), scalar_to_json(a.terms[exp])]
                for exp in sorted(a.terms, key=_grlex_key)
            ]
        }
    if isinstance(a, LaurentFrac):
        return {"num": scalar_to_json(a.num), "den": scalar_to_json(a.den)}
    raise TypeError(f"not a scalar: {a!r}")


def scalar_from_json(obj):
    if isinstance(obj, str):
        return Fraction(obj)
    if isinstance(obj, dict) and "laurent" in obj:
        return make_laurent({
            tuple(exp): Fraction(c) for exp, c in obj["laurent"]
        })
    if isinstance(obj, dict) and "num" in obj:
        return LaurentFrac.make(scalar_from_json(obj["num"]), scalar_from_json(obj["den"]))
    raise ValueError(f"not a serialized scalar: {obj!r}")

