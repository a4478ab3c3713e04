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

Canonical forms: no zero coefficients are stored, rationals are reduced
by Fraction itself, and a LaurentFrac denominator is a non-unit
polynomial with nonnegative exponents, integer coprime coefficients,
positive leading coefficient under graded-lex order, and no common
factor with the numerator (common factors are cleared whenever the
denominator involves a single symbol, the only shape the workbench
produces).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

SYMBOLS = ("q", "d", "y")
_NVARS = len(SYMBOLS)
_ZEXP = (0, 0, 0)

Exponent = tuple[int, int, int]


def _grlex_key(exp):
    return (sum(exp), exp)


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"not a rational coefficient: {c!r}")


def make_laurent(terms):
    """Normalize a {exponent: coefficient} dict into a scalar."""
    clean = {}
    for exp, c in terms.items():
        c = _as_fraction(c)
        if c:
            clean[exp] = c
    if not clean:
        return Fraction(0)
    if len(clean) == 1 and _ZEXP in clean:
        return clean[_ZEXP]
    return Laurent(clean)


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
        return Laurent({exp: Fraction(1)})

    def _lift(self, other):
        if isinstance(other, Laurent):
            return other
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return Laurent({_ZEXP: c}) if c else Laurent({})
        return None

    def __add__(self, other):
        if isinstance(other, LaurentFrac):
            return other.__radd__(self)
        other = self._lift(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = terms.get(exp, 0) + c
            if s:
                terms[exp] = s
            else:
                terms.pop(exp, None)
        return make_laurent(terms)

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
            if other == 1:
                return self
            if not other:
                return Fraction(0)
            return Laurent({e: c * other for e, c in self.terms.items()})
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
                    terms.pop(exp, None)
        return make_laurent(terms)

    __rmul__ = __mul__

    def _shift(self, mono):
        """Product with a single-term Laurent `mono`: exponents move, nothing merges."""
        (e2, c2), = mono.terms.items()
        unit = c2 == 1
        terms = {
            (e[0] + e2[0], e[1] + e2[1], e[2] + e2[2]): c if unit else c * c2
            for e, c in self.terms.items()
        }
        if len(terms) == 1 and _ZEXP in terms:
            return terms[_ZEXP]
        return Laurent(terms)

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
    return Laurent({_ZEXP: _as_fraction(x)})


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


def _poly1_mod(a, b):
    # univariate polynomial remainder over Q; dicts {exp: Fraction}, b nonzero
    a = dict(a)
    db = max(b)
    lb = b[db]
    while a and max(a) >= db:
        da = max(a)
        f = a[da] / lb
        for e, c in b.items():
            s = a.get(e + da - db, 0) - f * c
            if s:
                a[e + da - db] = s
            else:
                a.pop(e + da - db, None)
    return a


def _poly1_gcd(a, b):
    while b:
        a, b = b, _poly1_mod(a, b)
    if not a:
        return {}
    lead = a[max(a)]
    return {e: c / lead for e, c in a.items()}  # monic


def _split_by_other_vars(lp, k):
    """View lp as a polynomial in symbol k with coefficients grouped by the other exponents."""
    groups = {}
    for e, c in lp.terms.items():
        rest = tuple(e[j] if j != k else 0 for j in range(_NVARS))
        groups.setdefault(rest, {})[e[k]] = c
    return groups


def _poly1_divexact(a, g):
    # exact univariate division; caller guarantees divisibility
    out = {}
    a = dict(a)
    dg = max(g)
    lg = g[dg]
    while a:
        da = max(a)
        assert da >= dg, "inexact division"
        f = a[da] / lg
        out[da - dg] = f
        for e, c in g.items():
            s = a.get(e + da - dg, 0) - f * c
            if s:
                a[e + da - dg] = s
            else:
                a.pop(e + da - dg, None)
    return out


def _reduce_multivariate(num, den):
    """
    Clear common polynomial factors when the denominator genuinely involves
    several symbols.  The workbench's own flows only ever produce univariate
    denominators (Poincare polynomials and q-factorials), so this path is a
    correctness fallback, not a hot path; it leans on sympy's exact gcd.
    """
    import sympy

    gens = sympy.symbols(" ".join(SYMBOLS))
    nmono, nshift = _monomial_content(num)

    def to_poly(lp):
        return sympy.Poly.from_dict(
            {e: sympy.Rational(c.numerator, c.denominator) for e, c in lp.terms.items()},
            *gens,
        )

    def from_poly(poly):
        return make_laurent({
            tuple(int(x) for x in e): Fraction(int(c.p), int(c.q))
            for e, c in poly.as_dict().items()
        })

    pn, pd = to_poly(nshift), to_poly(den)
    g = pn.gcd(pd)
    if g.total_degree() > 0:
        pn, pd = pn.exquo(g), pd.exquo(g)
    num = sc_mul(from_poly(pn), make_laurent({nmono: Fraction(1)}))
    return num, from_poly(pd)


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

        dvars = _vars_used(den)
        if len(dvars) == 1:
            k = dvars[0]
            nmono, nshift = _monomial_content(num)
            g = {e: c for e, c in _split_by_other_vars(den, k)[_ZEXP].items()}
            for coeffs in _split_by_other_vars(nshift, k).values():
                g = _poly1_gcd(g, coeffs)
                if g and max(g) == 0:
                    g = {}
                    break
            if g:
                dq = _poly1_divexact(_split_by_other_vars(den, k)[_ZEXP], g)
                den = make_laurent({
                    tuple(e if j == k else 0 for j in range(_NVARS)): c
                    for e, c in dq.items()
                })
                nterms = {}
                for rest, coeffs in _split_by_other_vars(nshift, k).items():
                    for e, c in _poly1_divexact(coeffs, g).items():
                        nterms[tuple(rest[j] if j != k else e for j in range(_NVARS))] = c
                num = sc_mul(make_laurent(nterms), make_laurent({nmono: Fraction(1)}))
                if isinstance(den, Fraction) or den.is_unit():
                    return sc_mul(num, sc_inv(den))
                num = _lift(num)
        elif len(dvars) > 1:
            num, den = _reduce_multivariate(num, den)
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
        den = Laurent({e: c * scale for e, c in den.terms.items()})
        num = sc_mul(num, scale)
        if isinstance(num, Fraction) and not num:
            return num
        return LaurentFrac(num, den)

    def _lift(self, other):
        if isinstance(other, LaurentFrac):
            return other
        if isinstance(other, (int, Fraction, Laurent)):
            return LaurentFrac(other, make_laurent({_ZEXP: Fraction(1)}))
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

ONE = Fraction(1)
ZERO = Fraction(0)
Q = Laurent.var("q")
D = Laurent.var("d")
YSYM = Laurent.var("y")


def sc_mul(a, b):
    return a * b


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
            return make_laurent({tuple(-e for e in exp): 1 / c})
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

