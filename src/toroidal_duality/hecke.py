"""
Concrete right modules over the two-parameter deformation of the double
affine Hecke algebra of type gl(l), word evaluation, and the relation
suites that certify them.

Words act on the right: apply_word evaluates letters left to right, so a
relation like T.X1.T = q^2 X2 is checked by applying T, then X1, then T to
each probe.  apply_letter is the one loop that applies a letter to a
vector, for words, for the Y and Q programs and for the checks' word memo;
its output starts as a scaled copy of the first key's image.
Y and Q are programs at exponent +-1 only.  Q and Y_1 are programs of
atomic letters; Y_j for j >= 2 is q^2 T_{j-1}^-1 Y_{j-1} T_{j-1}^-1, so
its middle letter is read from the letter cache.  A higher power is built
from the power one below it through the letter cache, and a zero exponent
is the identity.

Two families are provided.

  * UnitModule: the one-dimensional l = 1 family.  The algebra at l = 1 is
    generated by X, Y with X.Y = x Y.X, so one-dimensional modules exist
    exactly at x = 1; X acts by a, Y acts by b.

  * PolynomialModule: Laurent polynomials in X_1..X_l, X_j acting by
    multiplication and T_i by a Demazure-Lusztig operator whose divided
    difference telescopes to finite support between mu and s_i(mu).  The
    Y operators come from an auxiliary scaled cyclic shift
        w: f(X_1,..,X_l) |-> f(xi X_l, X_1, .., X_{l-1}),
    via Y_1 = w T_{l-1} ... T_1 and Y_{j+1} = q^2 T_j^{-1} Y_j T_j^{-1}.
    The shift scale xi is pinned to x by the X_0-Y_1 twist relation (solve
    on the constant monomial; the uniqueness test lives in the suite).
    None of this is taken on faith: the defining, Q-presentation, and
    conjugation suites below are the oracle that the construction is a
    module at all.

Monomial keys live in the box [-N, N]^l.  An evaluation that would take a
key out of it raises WindowExit, which the check runner reports as a skip,
never a pass.  From a key inside the box only X, and so Q, can do this: W
permutes a key's exponents, and T (and so Y) keeps them between the two it
mixes.  So the window test of an atomic letter reads one key of its image,
the one the letter moves the key to (T's swapped key, W's rotated key, X's
moved key): every other key of the image is no further out.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import partial
from math import gcd
from typing import NamedTuple

from .params import Params
from .scalars import (
    ONE,
    Scalar,
    bare_fraction,
    is_unit,
    is_zero,
    sc_inv,
    sc_mul,
    sc_pow,
    scalar_to_json,
)

Letter = tuple[str, int, int]  # (kind, index, exponent), kinds T X Y Q W
Word = tuple[Letter, ...]
Expr = tuple[tuple[Scalar, Word], ...]  # signed sum of scaled words, e.g. a relation's residual lhs - rhs

EMPTY: Word = ()


def lt(kind, idx=0, exp=1) -> Word:
    return ((kind, idx, exp),)


def wmul(*words) -> Word:
    out = []
    for w in words:
        out.extend(w)
    return tuple(out)


def winv(word) -> Word:
    return tuple((k, i, -e) for (k, i, e) in reversed(word))


def x0_word(l) -> Word:
    return tuple(("X", j, 1) for j in range(1, l + 1))


def tij_word(i, j) -> Word:
    """T_{i,j} = T_i T_{i+1} .. T_j (ascending) or T_i T_{i-1} .. T_j (descending)."""
    step = 1 if j >= i else -1
    return tuple(("T", k, 1) for k in range(i, j + step, step))


def qij_word(i, j) -> Word:
    """Q_{i,j} = X_i T_{i,j}; Q = Q_{1,l-1}."""
    return wmul(lt("X", i), tij_word(i, j))


def p_word(r, l) -> Word:
    """P_r = Q_{l-r,l-1} ... Q_{2,r+1} Q_{1,r}."""
    assert 1 <= r < l
    return wmul(*[qij_word(k, k + r - 1) for k in range(l - r, 0, -1)])


class WindowExit(Exception):
    """A letter took a key out of the lattice window; args are (letter, key)."""

    def __str__(self):
        letter, key = self.args
        return f"letter {letter} takes key {key} out of the window"


# -- the sparse-vector kernel: vectors are {key: scalar} with no zero entries;
# a fresh output starts as vec_scale of its first image, and merge_vec adds
# each later image into it --

def merge_vec(acc, items, coeff=Fraction(1)):
    """
    acc += coeff * items in place, dropping every entry that cancels to zero.

    When coeff, the item and the entry it lands on are all Fractions, the
    work is done on their integer numerators and denominators: the product
    by cross-cancelling gcds, the sum with one gcd (equal denominators add
    their numerators).  The reduced result, denominator positive, goes into
    a `bare_fraction()`, skipping Fraction.__new__ and the stdlib operators;
    it equals what those operators give, in value, hash and str.  Any other
    scalar kind, or a mix with one, takes the generic operators.
    """
    frac = coeff.__class__ is Fraction
    if frac:
        an, ad = coeff._numerator, coeff._denominator
        unit = an == 1 and ad == 1
    else:
        unit = coeff == 1
    get = acc.get
    for key, c in items:
        prev = get(key)
        if frac and c.__class__ is Fraction and (prev is None or prev.__class__ is Fraction):
            n, d = c._numerator, c._denominator
            if not unit:  # both reduced: cross-cancel, and the product is reduced
                g1, g2 = gcd(an, d), gcd(n, ad)
                n, d = (an // g1) * (n // g2), (ad // g2) * (d // g1)
            if prev is not None:
                pn, pd = prev._numerator, prev._denominator
                if pd == d:
                    n += pn
                else:
                    n, d = pn * d + n * pd, pd * d
                if n:
                    g = gcd(n, d)
                    if g != 1:
                        n, d = n // g, d // g
            if not n:
                acc.pop(key, None)
            elif unit and prev is None:
                acc[key] = c
            else:
                s = acc[key] = bare_fraction()
                s._numerator, s._denominator = n, d
            continue
        if not unit:
            c = sc_mul(coeff, c)
        s = c if prev is None else prev + c
        if is_zero(s):
            acc.pop(key, None)
        else:
            acc[key] = s


def vec_scale(coeff, items):
    """
    coeff * items as a new dict: what merge_vec makes in an empty
    accumulator, for the items of one vector (distinct keys, nonzero
    entries) and a nonzero coeff.  A unit coeff copies the items; a Fraction
    coeff multiplies each Fraction entry by cross-cancelled gcds into a
    `bare_fraction()`, and any other pair through `sc_mul`.  There is no
    lookup, sum or zero test: a product of nonzero exact scalars is nonzero.
    """
    if coeff.__class__ is not Fraction:
        return {key: sc_mul(coeff, c) for key, c in items}
    an, ad = coeff._numerator, coeff._denominator
    if an == 1 and ad == 1:
        return dict(items)
    out = {}
    for key, c in items:
        if c.__class__ is Fraction:
            n, d = c._numerator, c._denominator
            g1, g2 = gcd(an, d), gcd(n, ad)
            s = out[key] = bare_fraction()
            s._numerator, s._denominator = (an // g1) * (n // g2), (ad // g2) * (d // g1)
        else:
            out[key] = sc_mul(coeff, c)
    return out


class UnitModule:
    """One-dimensional l = 1 module: single key (), X acts by a, Y acts by b."""

    family = "l1"

    def __init__(self, a, b, params: Params):
        if params.l != 1:
            raise ValueError("the one-dimensional family needs l = 1")
        if params.x != Fraction(1):
            raise ValueError("no one-dimensional module unless x = 1 (take d = q)")
        if not is_unit(a) or not is_unit(b):
            raise ValueError("a and b must be units")
        self.params = params
        self.l = 1
        self.window = None
        self.a = a
        self.b = b

    def inside(self, keys):
        return True

    def letter_cached(self, letter, key):
        kind, idx, exp = letter
        if kind in ("X", "Q"):
            if kind == "X" and idx != 1:
                raise ValueError(f"X index {idx} out of range for l = 1")
            return ((key, sc_pow(self.a, exp)),)
        if kind == "Y":
            if idx != 1:
                raise ValueError(f"Y index {idx} out of range for l = 1")
            return ((key, sc_pow(self.b, exp)),)
        raise ValueError(f"letter {letter} undefined for l = 1")

    def descriptor(self):
        return {
            "schema": "hecke-module@1",
            "family": self.family,
            "l": 1,
            "window": None,
            "a": scalar_to_json(self.a),
            "b": scalar_to_json(self.b),
        }


class PolynomialModule:
    """Windowed Laurent-monomial module; see the module docstring for the construction."""

    family = "polynomial"

    def __init__(self, params: Params, window: int, corrupt_t1=False):
        if params.l < 2:
            raise ValueError("polynomial family needs l >= 2")
        if window < 2:
            raise ValueError("window too small")
        self.params = params
        self.l = params.l
        self.window = window
        self.xi = params.x  # shift scale forced by X_0 Y_1 = x Y_1 X_0
        self.corrupt_t1 = corrupt_t1
        q = params.q
        self._q2 = sc_mul(q, q)
        self._q2m1 = self._q2 - ONE
        self._neg_q2m1 = -self._q2m1
        self._q2inv = sc_inv(self._q2)
        self._q2inv_m1 = self._q2inv - ONE  # T^-1's diagonal term
        self._tlead1 = sc_mul(self._q2, q) if corrupt_t1 else self._q2
        self._cache = {}
        self._programs = {}  # Y or Q letter with exponent +-1 -> `_program_for(letter)`

    # -- raw letter actions on a single monomial key ------------------------

    def _dl_items(self, key, i, lead):
        a, b = key[i - 1], key[i]
        items = {key[: i - 1] + (b, a) + key[i + 1 :]: lead}
        if a != b:
            c = self._q2m1 if a < b else self._neg_q2m1
            hi, lo = (b, a) if a < b else (a, b)
            merge_vec(items, [
                (key[: i - 1] + (hi - 1 - t, lo + 1 + t) + key[i + 1 :], c)
                for t in range(hi - lo)
            ])
        return list(items.items())

    def _atomic_items(self, letter, key):
        """
        The image of `key` under a T, W or X letter.  Its first key is where
        the letter moves `key`: T's swapped key, W's rotated key, X's moved
        key; `letter_cached` tests that key alone against the window.
        """
        kind, idx, exp = letter
        if kind == "X":
            assert 1 <= idx <= self.l
            k2 = key[: idx - 1] + (key[idx - 1] + exp,) + key[idx:]
            return [(k2, ONE)]
        if kind == "T":
            assert 1 <= idx <= self.l - 1 and exp in (1, -1)
            lead = self._tlead1 if idx == 1 else self._q2
            items = self._dl_items(key, idx, lead)
            if exp == 1:
                return items
            # T^-1 = q^-2 (T + 1 - q^2)
            out = {}
            merge_vec(out, items, self._q2inv)
            merge_vec(out, [(key, self._q2inv_m1)])
            return list(out.items())
        if kind == "W":
            assert exp in (1, -1)
            if exp == 1:
                k2 = key[1:] + (key[0],)
                return [(k2, sc_pow(self.xi, key[0]))]
            k2 = (key[-1],) + key[:-1]
            return [(k2, sc_pow(self.xi, -key[-1]))]
        raise ValueError(f"not an atomic letter: {letter}")

    # -- Y and Q: programs at exponent +-1, powers stepped -------------------

    def _program_for(self, letter):
        """
        (coefficient, letters) of a program letter with exponent +-1.  Q and
        Y_1 are atom programs; Y_j for j >= 2 is q^2 T_{j-1}^-1 Y_{j-1}
        T_{j-1}^-1, whose Y_{j-1} the letter cache supplies.
        """
        kind, idx, exp = letter
        if kind == "Y":
            assert 1 <= idx <= self.l
            if idx == 1:
                c, prog = Fraction(1), (("W", 0, 1),) + tuple(("T", i, 1) for i in range(self.l - 1, 0, -1))
            else:
                tinv = ("T", idx - 1, -1)
                c, prog = self._q2, (tinv, ("Y", idx - 1, 1), tinv)
        elif kind == "Q":
            assert idx == 0
            c, prog = Fraction(1), (("X", 1, 1),) + tuple(("T", i, 1) for i in range(1, self.l))
        else:
            raise ValueError(f"not a program letter: {letter}")
        if exp < 0:
            c = sc_inv(c)
            prog = tuple((k, i, -e) for (k, i, e) in reversed(prog))
        return c, prog

    # -- cached application --------------------------------------------------

    def letter_cached(self, letter, key):
        """
        The image of one key under one letter, as items (sorted for a Y or
        Q letter), made once per (letter, key).  A zero exponent is the
        identity and is never stored.  A Y or Q letter with exponent +-1 runs
        its program, made once per letter, whose Y_{j-1} letter (in Y_j,
        j >= 2) is looked up here; a higher power is the power one step
        nearer zero, then the +-1 letter on each key it reaches, both looked
        up here, so Y^3 reuses Y^2 of the key and Y of every key that Y^2
        reaches.

        An atomic image with a key outside the window raises WindowExit, and
        nothing is stored.  The test reads one key, the image's first: T's
        swapped key, W's rotated key or X's moved key.  Every other key of a
        T image holds, where T mixes, exponents between the two there, so it
        is no further out; W's and X's images have one key.  So this raises
        exactly when some image key leaves the window, and an X step from
        outside the window back into it does not raise.
        """
        hit = self._cache.get((letter, key))
        if hit is not None:
            return hit
        kind, idx, exp = letter
        if not exp:
            return ((key, ONE),)
        if kind in ("Y", "Q"):
            if exp in (1, -1):
                program = self._programs.get(letter)
                if program is None:
                    program = self._programs[letter] = self._program_for(letter)
                coeff, prog = program
                vec = {key: coeff}
                for step_letter in prog:
                    vec = apply_letter(self, step_letter, vec)
            else:
                step = 1 if exp > 0 else -1
                items = self.letter_cached((kind, idx, exp - step), key)
                vec = apply_letter(self, (kind, idx, step), dict(items))
            entry = tuple(sorted(vec.items()))
        else:
            entry = tuple(self._atomic_items(letter, key))
            if max(map(abs, entry[0][0])) > self.window:
                raise WindowExit(letter, key)
        self._cache[(letter, key)] = entry
        return entry

    def inside(self, keys):
        window = self.window
        return all(max(map(abs, key)) <= window for key in keys)

    def descriptor(self):
        p = self.params
        return {
            "schema": "hecke-module@1",
            "family": self.family,
            "l": self.l,
            "n": p.n,
            "window": self.window,
            "q": scalar_to_json(p.q),
            "d": scalar_to_json(p.d),
            "x": scalar_to_json(p.x),
            "y": "1",  # the module is built at y = 1
            "xi": scalar_to_json(self.xi),
            "corrupt_t1": self.corrupt_t1,
        }


def apply_letter(module, letter, vec):
    """One letter's action on a vector: each key's image comes from the module's letter cache."""
    out = {}
    for key, c in vec.items():
        items = module.letter_cached(letter, key)
        if out:
            merge_vec(out, items, c)
        else:
            out = vec_scale(c, items)
    return out


def apply_word(module, word, vec):
    """Right action of a word on a finitely supported vector."""
    for letter in word:
        vec = apply_letter(module, letter, vec)
    return vec


def apply_expr(module, expr, vec):
    out = {}
    for coeff, word in expr:
        merge_vec(out, apply_word(module, word, vec).items(), coeff)
    return out


class RelCheck(NamedTuple):
    """One relation instance, stated as its residual lhs - rhs."""

    relation: str
    indices: tuple
    residual: Expr


def _equals(lhs, rhs, c=ONE) -> Expr:
    """The residual of the relation lhs = c rhs, both sides words."""
    return ((ONE, lhs), (-c, rhs))


def _shared_checks(prefix, l, q2) -> list[RelCheck]:
    """The T and Y relations that the defining and Q-presentation suites share."""
    out = []
    for i in range(1, l):
        ti, tiv = lt("T", i), lt("T", i, -1)
        out.append(RelCheck(f"{prefix}.t-inv", (i,), _equals(wmul(ti, tiv), EMPTY)))
        # (T + 1)(T - q^2) = 0  <=>  T.T - (q^2 - 1) T - q^2 = 0
        out.append(RelCheck(
            f"{prefix}.t-quad", (i,),
            ((ONE, wmul(ti, ti)), (ONE - q2, ti), (-q2, EMPTY)),
        ))
        out.append(RelCheck(
            f"{prefix}.tyt", (i,),
            _equals(wmul(tiv, lt("Y", i), tiv), lt("Y", i + 1), sc_inv(q2)),
        ))
    for i in range(1, l - 1):
        out.append(RelCheck(
            f"{prefix}.t-braid", (i,),
            _equals(wmul(lt("T", i), lt("T", i + 1), lt("T", i)), wmul(lt("T", i + 1), lt("T", i), lt("T", i + 1))),
        ))
    for i, j in itertools.combinations(range(1, l), 2):
        if j - i > 1:
            out.append(RelCheck(
                f"{prefix}.t-comm", (i, j),
                _equals(wmul(lt("T", i), lt("T", j)), wmul(lt("T", j), lt("T", i))),
            ))
    for i, j in itertools.combinations(range(1, l + 1), 2):
        out.append(RelCheck(
            f"{prefix}.y-comm", (i, j),
            _equals(wmul(lt("Y", i), lt("Y", j)), wmul(lt("Y", j), lt("Y", i))),
        ))
    for i in range(1, l):
        for j in range(1, l + 1):
            if j not in (i, i + 1):
                out.append(RelCheck(
                    f"{prefix}.yt-comm", (j, i),
                    _equals(wmul(lt("Y", j), lt("T", i)), wmul(lt("T", i), lt("Y", j))),
                ))
    return out


def defining_relation_checks(module) -> list[RelCheck]:
    """The defining relation suite of the l-strand algebra, one check per instance."""
    l = module.l
    p = module.params
    q2 = sc_mul(p.q, p.q)
    out = _shared_checks("defining", l, q2)
    for i in range(1, l):
        out.append(RelCheck("defining.t-inv", (-i,), _equals(wmul(lt("T", i, -1), lt("T", i)), EMPTY)))
    out.append(RelCheck(
        "defining.xy-twist", (),
        _equals(wmul(x0_word(l), lt("Y", 1)), wmul(lt("Y", 1), x0_word(l)), p.x),
    ))
    for i, j in itertools.combinations(range(1, l + 1), 2):
        out.append(RelCheck(
            "defining.x-comm", (i, j),
            _equals(wmul(lt("X", i), lt("X", j)), wmul(lt("X", j), lt("X", i))),
        ))
    for i in range(1, l):
        for j in range(1, l + 1):
            if j not in (i, i + 1):
                out.append(RelCheck(
                    "defining.xt-comm", (j, i),
                    _equals(wmul(lt("X", j), lt("T", i)), wmul(lt("T", i), lt("X", j))),
                ))
        out.append(RelCheck(
            "defining.txt", (i,),
            _equals(wmul(lt("T", i), lt("X", i), lt("T", i)), lt("X", i + 1), q2),
        ))
    if l >= 2:
        out.append(RelCheck(
            "defining.xy-commutator", (),
            _equals(wmul(lt("X", 2), lt("Y", 1, -1), lt("X", 2, -1), lt("Y", 1)), wmul(lt("T", 1), lt("T", 1)),
                    sc_inv(q2)),
        ))
    return out


def q_presentation_checks(module) -> list[RelCheck]:
    """The Q-presentation suite: shared T/Y relations plus the Q conjugations."""
    l = module.l
    p = module.params
    qw, qinv = lt("Q"), lt("Q", 0, -1)
    out = _shared_checks("qpres", l, sc_mul(p.q, p.q))
    for i in range(2, l - 1):
        out.append(RelCheck("qpres.q-shift-t", (i,), _equals(wmul(qw, lt("T", i - 1), qinv), lt("T", i))))
    if l >= 2:
        out.append(RelCheck("qpres.q2-wrap-t", (), _equals(wmul(qw, qw, lt("T", l - 1), qinv, qinv), lt("T", 1))))
    for i in range(1, l):
        out.append(RelCheck("qpres.q-shift-y", (i,), _equals(wmul(qw, lt("Y", i), qinv), lt("Y", i + 1))))
    out.append(RelCheck("qpres.q-wrap-y", (), _equals(wmul(qw, lt("Y", l), qinv), lt("Y", 1), p.x)))
    return out


def conjugation_lemma_checks(module) -> list[RelCheck]:
    """Both conjugation lemmas for the segment elements Q_{i,j} and P_r."""
    l = module.l
    p = module.params
    out = []
    for i in range(1, l):
        for j in range(i, l):
            qij = qij_word(i, j)
            qij_inv = winv(qij)
            for r in range(i, j + 1):
                out.append(RelCheck(
                    "segment.q-conj-y", (i, j, r),
                    _equals(wmul(qij, lt("Y", r), qij_inv), lt("Y", r + 1)),
                ))
            for t in range(i + 1, j):
                out.append(RelCheck(
                    "segment.q-conj-t", (i, j, t),
                    _equals(wmul(qij, lt("T", t - 1), qij_inv), lt("T", t)),
                ))
    for r in range(1, l):
        pr = p_word(r, l)
        pr_inv = winv(pr)
        for s in range(r, l):
            out.append(RelCheck(
                "segment.p-conj-y", (r, s),
                _equals(wmul(pr, lt("Y", s + 1), pr_inv), lt("Y", s - r + 1), p.x),
            ))
        for k in range(r + 1, l):
            out.append(RelCheck(
                "segment.p-conj-t", (r, k),
                _equals(wmul(pr, lt("T", k), pr_inv), lt("T", k - r)),
            ))
        rhs = wmul(
            tuple(("X", j, 1) for j in range(1, r + 1)),
            *[tij_word(r + t, 1 + t) for t in range(l - r)],
        )
        # exponent 2r(r-l): forced by the quadratic/cross relations, see tests
        out.append(RelCheck(
            "segment.x0-wrap", (r,),
            _equals(wmul(x0_word(l), pr_inv), rhs, sc_pow(p.q, 2 * r * (r - l))),
        ))
    return out


def hecke_probes(module, count, seed):
    """Deterministic window-interior probes: labelled monomials plus small combos."""
    if module.family == "l1":
        return [("h000", {(): Fraction(1)})]
    l = module.l
    # widest transient excursion of any suite word is the double Q wrap
    # (two X_1's) plus one X_0 pass; a margin of l + 2 keeps every probe trusted
    reach = max(1, module.window - (l + 2))
    while (2 * reach + 1) ** l < count + 5 and reach < module.window - 1:
        reach += 1
    rng = random.Random(seed)
    keys = [
        (0,) * l,
        (1,) + (0,) * (l - 1),
        (0,) * (l - 1) + (-1,),
        (1,) * l,
        tuple((-1) ** k for k in range(l)),
    ]
    seen = set(keys)
    misses = 0
    while len(keys) < count - 2 and misses < 10000:
        key = tuple(rng.randint(-reach, reach) for _ in range(l))
        if key in seen:
            misses += 1
            continue
        seen.add(key)
        keys.append(key)
    probes = [(f"h{i:03d}", {key: Fraction(1)}) for i, key in enumerate(keys)]
    if len(keys) >= 4:
        probes.append((f"h{len(probes):03d}", {keys[0]: Fraction(1), keys[1]: Fraction(2)}))
        probes.append((f"h{len(probes):03d}", {keys[2]: Fraction(-1), keys[3]: Fraction(3)}))
    return probes[:max(count, 1)]


def make_hecke_items(module, checks, probes):
    """
    (meta, thunk) pairs for the generic relation runner, made as they are
    consumed, every check of one probe before the next probe: the word memo
    of `reports.identity` holds one probe's words at a time.  Each item's
    thunk is partial(identity, vec, module, residual), the residual as
    stated; the memo trusts its probe, so a probe outside the window raises
    ValueError here.
    """
    from .reports import identity  # reports imports this module

    for pid, vec in probes:
        if not module.inside(vec):
            raise ValueError(f"probe {pid} leaves the window {module.window}")
    return (((chk.relation, chk.indices, (), pid), partial(identity, vec, module, chk.residual))
            for pid, vec in probes for chk in checks)
