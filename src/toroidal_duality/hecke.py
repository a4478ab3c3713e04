"""
Concrete right modules over the two-parameter deformation of the double
affine Hecke algebra of type gl(l), word evaluation, and the relation
suites that certify them.

Words act on the right: apply_word evaluates letters left to right, so a
relation like T.X1.T = q^2 X2 is checked by applying T, then X1, then T to
each probe.

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

Monomial keys live in the box [-N, N]^l; any evaluation that escapes is
clipped and flagged so the caller can skip (never trust) that probe.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .params import Params
from .scalars import (
    Scalar,
    is_unit,
    is_zero,
    sc_inv,
    sc_mul,
    sc_pow,
    scalar_to_json,
)

Letter = tuple[str, int, int]  # (kind, index, exponent), kinds T X Y Q W
Word = tuple[Letter, ...]
Expr = tuple[tuple[Scalar, Word], ...]  # formal sum of scaled words

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
    """Q_{i,j} = X_i T_{i,j}; Q = Q_{1,l-1} with an empty T-part at l = 1."""
    if j < i:
        return lt("X", i)
    return wmul(lt("X", i), tij_word(i, j))


def p_word(r, l) -> Word:
    """P_r = Q_{l-r,l-1} ... Q_{2,r+1} Q_{1,r}."""
    assert 1 <= r < l
    return wmul(*[qij_word(k, k + r - 1) for k in range(l - r, 0, -1)])


class WindowBudget:
    """Whether an evaluation stayed inside the lattice window."""

    __slots__ = ("valid",)

    def __init__(self):
        self.valid = True

    def observe(self, valid):
        if not valid:
            self.valid = False

    def ok(self):
        return self.valid


# -- the sparse-vector kernel: vectors are {key: scalar} with no zero entries --

def merge_vec(acc, items, coeff=Fraction(1)):
    """acc += coeff * items in place, dropping every entry that cancels to zero."""
    unit = coeff == 1
    for key, c in items:
        if not unit:
            c = sc_mul(coeff, c)
        prev = acc.get(key)
        s = c if prev is None else prev + c
        if is_zero(s):
            acc.pop(key, None)
        else:
            acc[key] = s


def vec_sub(u, v):
    out = dict(u)
    merge_vec(out, [(k, -c) for k, c in v.items()])
    return out


def vec_scale(c, v):
    out = {}
    merge_vec(out, v.items(), c)
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

    def observe_vec(self, budget, vec):
        pass

    def letter_cached(self, letter, key):
        kind, idx, exp = letter
        if kind in ("X", "Q"):
            if kind == "X" and idx != 1:
                raise ValueError(f"X index {idx} out of range for l = 1")
            return ((key, sc_pow(self.a, exp)),), True
        if kind == "Y":
            if idx != 1:
                raise ValueError(f"Y index {idx} out of range for l = 1")
            return ((key, sc_pow(self.b, exp)),), True
        raise ValueError(f"letter {letter} undefined for l = 1")

    def basis_keys(self):
        return [()]

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
        if params.y != Fraction(1):
            raise ValueError("polynomial family is built at y = 1")
        if window < 2:
            raise ValueError("window too small")
        self.params = params
        self.l = params.l
        self.window = window
        self.xi = params.x  # shift scale forced by X_0 Y_1 = x Y_1 X_0
        self.corrupt_t1 = corrupt_t1
        q = params.q
        self._q2 = sc_mul(q, q)
        self._q2m1 = self._q2 - Fraction(1)
        self._q2inv = sc_inv(self._q2)
        self._tlead1 = sc_mul(self._q2, q) if corrupt_t1 else self._q2
        self._cache = {}
        self._yprog = {}

    # -- raw letter actions on a single monomial key ------------------------

    def _dl_items(self, key, i, lead):
        a, b = key[i - 1], key[i]
        items = {key[: i - 1] + (b, a) + key[i + 1 :]: lead}
        if a != b:
            c = self._q2m1 if a < b else -self._q2m1
            hi, lo = (b, a) if a < b else (a, b)
            merge_vec(items, [
                (key[: i - 1] + (hi - 1 - t, lo + 1 + t) + key[i + 1 :], c)
                for t in range(hi - lo)
            ])
        return list(items.items())

    def _atomic_items(self, letter, key):
        kind, idx, exp = letter
        if kind == "X":
            assert 1 <= idx <= self.l
            k2 = key[: idx - 1] + (key[idx - 1] + exp,) + key[idx:]
            return [(k2, Fraction(1))]
        if kind == "T":
            assert 1 <= idx <= self.l - 1 and exp in (1, -1)
            lead = self._tlead1 if (idx == 1 and self.corrupt_t1) else self._q2
            items = self._dl_items(key, idx, lead)
            if exp == 1:
                return items
            # T^-1 = q^-2 (T + 1 - q^2)
            out = {}
            merge_vec(out, items, self._q2inv)
            merge_vec(out, [(key, self._q2inv - Fraction(1))])
            return list(out.items())
        if kind == "W":
            assert exp in (1, -1)
            if exp == 1:
                k2 = key[1:] + (key[0],)
                return [(k2, sc_pow(self.xi, key[0]))]
            k2 = (key[-1],) + key[:-1]
            return [(k2, sc_pow(self.xi, -key[-1]))]
        raise ValueError(f"not an atomic letter: {letter}")

    # -- Y and Q as programs of atomic letters ------------------------------

    def y_program(self, j):
        """(coefficient, atomic letters) implementing Y_j."""
        assert 1 <= j <= self.l
        if j not in self._yprog:
            if j == 1:
                prog = (("W", 0, 1),) + tuple(("T", i, 1) for i in range(self.l - 1, 0, -1))
                self._yprog[1] = (Fraction(1), prog)
            else:
                c, prog = self.y_program(j - 1)
                self._yprog[j] = (
                    sc_mul(self._q2, c),
                    (("T", j - 1, -1),) + prog + (("T", j - 1, -1),),
                )
        return self._yprog[j]

    def _program_for(self, letter):
        kind, idx, exp = letter
        if kind == "Y":
            c, prog = self.y_program(idx)
        elif kind == "Q":
            assert idx == 0
            c, prog = Fraction(1), (("X", 1, 1),) + tuple(("T", i, 1) for i in range(1, self.l))
        else:
            raise ValueError(f"not a program letter: {letter}")
        if exp < 0:
            c = sc_inv(c)
            prog = tuple((k, i, -e) for (k, i, e) in reversed(prog))
        reps = abs(exp)
        return sc_pow(c, reps), prog * reps

    # -- cached, window-clipped application ---------------------------------

    def letter_cached(self, letter, key):
        hit = self._cache.get((letter, key))
        if hit is not None:
            return hit
        kind = letter[0]
        if kind in ("Y", "Q"):
            coeff, prog = self._program_for(letter)
            vec = {key: coeff}
            budget = WindowBudget()
            for atom in prog:
                out = {}
                for k, c in vec.items():
                    items, valid = self.letter_cached(atom, k)
                    budget.observe(valid)
                    merge_vec(out, items, c)
                vec = out
            entry = (tuple(sorted(vec.items())), budget.valid)
        else:
            raw = self._atomic_items(letter, key)
            kept = [(k, c) for k, c in raw if self._inside(k)]
            entry = (tuple(kept), len(kept) == len(raw))
        self._cache[(letter, key)] = entry
        return entry

    def _inside(self, key):
        return max(abs(x) for x in key) <= self.window

    def observe_vec(self, budget, vec):
        budget.observe(all(self._inside(k) for k in vec))

    def basis_keys(self):
        return [(0,) * self.l]

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
            "y": scalar_to_json(p.y),
            "xi": scalar_to_json(self.xi),
            "corrupt_t1": self.corrupt_t1,
        }


def apply_word(module, word, vec, budget=None):
    """Right action of a word on a finitely supported vector."""
    if budget is None:
        budget = WindowBudget()
    module.observe_vec(budget, vec)
    for letter in word:
        out = {}
        for key, c in vec.items():
            items, valid = module.letter_cached(letter, key)
            budget.observe(valid)
            merge_vec(out, items, c)
        vec = out
    return vec


def apply_expr(module, expr, vec, budget=None):
    if budget is None:
        budget = WindowBudget()
    out = {}
    for coeff, word in expr:
        merge_vec(out, apply_word(module, word, vec, budget).items(), coeff)
    return out


@dataclass(frozen=True)
class RelCheck:
    relation: str
    indices: tuple
    lhs: Expr
    rhs: Expr


def _one(word) -> Expr:
    return ((Fraction(1), word),)


def _scaled(coeff, word) -> Expr:
    return ((coeff, word),)


def _shared_checks(prefix, l, q2) -> list[RelCheck]:
    """The T and Y relations that the defining and Q-presentation suites share."""
    out = []
    for i in range(1, l):
        ti, tiv = lt("T", i), lt("T", i, -1)
        out.append(RelCheck(f"{prefix}.t-inv", (i,), _one(wmul(ti, tiv)), _one(EMPTY)))
        # (T + 1)(T - q^2) = 0  <=>  T.T = (q^2 - 1) T + q^2
        out.append(RelCheck(
            f"{prefix}.t-quad", (i,),
            _one(wmul(ti, ti)),
            ((q2 - Fraction(1), ti), (q2, EMPTY)),
        ))
        out.append(RelCheck(
            f"{prefix}.tyt", (i,),
            _one(wmul(tiv, lt("Y", i), tiv)),
            _scaled(sc_inv(q2), lt("Y", i + 1)),
        ))
    for i in range(1, l - 1):
        out.append(RelCheck(
            f"{prefix}.t-braid", (i,),
            _one(wmul(lt("T", i), lt("T", i + 1), lt("T", i))),
            _one(wmul(lt("T", i + 1), lt("T", i), lt("T", i + 1))),
        ))
    for i, j in itertools.combinations(range(1, l), 2):
        if j - i > 1:
            out.append(RelCheck(
                f"{prefix}.t-comm", (i, j),
                _one(wmul(lt("T", i), lt("T", j))),
                _one(wmul(lt("T", j), lt("T", i))),
            ))
    for i, j in itertools.combinations(range(1, l + 1), 2):
        out.append(RelCheck(
            f"{prefix}.y-comm", (i, j),
            _one(wmul(lt("Y", i), lt("Y", j))),
            _one(wmul(lt("Y", j), lt("Y", i))),
        ))
    for i in range(1, l):
        for j in range(1, l + 1):
            if j not in (i, i + 1):
                out.append(RelCheck(
                    f"{prefix}.yt-comm", (j, i),
                    _one(wmul(lt("Y", j), lt("T", i))),
                    _one(wmul(lt("T", i), lt("Y", j))),
                ))
    return out


def defining_relation_checks(module) -> list[RelCheck]:
    """The defining relation suite of the l-strand algebra, one check per instance."""
    l = module.l
    p = module.params
    q2 = sc_mul(p.q, p.q)
    out = _shared_checks("defining", l, q2)
    for i in range(1, l):
        out.append(RelCheck(
            "defining.t-inv", (-i,), _one(wmul(lt("T", i, -1), lt("T", i))), _one(EMPTY)
        ))
    out.append(RelCheck(
        "defining.xy-twist", (),
        _one(wmul(x0_word(l), lt("Y", 1))),
        _scaled(p.x, wmul(lt("Y", 1), x0_word(l))),
    ))
    for i, j in itertools.combinations(range(1, l + 1), 2):
        out.append(RelCheck(
            "defining.x-comm", (i, j),
            _one(wmul(lt("X", i), lt("X", j))),
            _one(wmul(lt("X", j), lt("X", i))),
        ))
    for i in range(1, l):
        for j in range(1, l + 1):
            if j not in (i, i + 1):
                out.append(RelCheck(
                    "defining.xt-comm", (j, i),
                    _one(wmul(lt("X", j), lt("T", i))),
                    _one(wmul(lt("T", i), lt("X", j))),
                ))
        out.append(RelCheck(
            "defining.txt", (i,),
            _one(wmul(lt("T", i), lt("X", i), lt("T", i))),
            _scaled(q2, lt("X", i + 1)),
        ))
    if l >= 2:
        out.append(RelCheck(
            "defining.xy-commutator", (),
            _one(wmul(lt("X", 2), lt("Y", 1, -1), lt("X", 2, -1), lt("Y", 1))),
            _scaled(sc_mul(sc_inv(q2), p.y), wmul(lt("T", 1), lt("T", 1))),
        ))
    return out


def q_presentation_checks(module) -> list[RelCheck]:
    """The Q-presentation suite: shared T/Y relations plus the Q conjugations."""
    l = module.l
    p = module.params
    qw, qinv = lt("Q"), lt("Q", 0, -1)
    out = _shared_checks("qpres", l, sc_mul(p.q, p.q))
    for i in range(2, l - 1):
        out.append(RelCheck(
            "qpres.q-shift-t", (i,),
            _one(wmul(qw, lt("T", i - 1), qinv)),
            _one(lt("T", i)),
        ))
    if l >= 2:
        out.append(RelCheck(
            "qpres.q2-wrap-t", (),
            _one(wmul(qw, qw, lt("T", l - 1), qinv, qinv)),
            _one(lt("T", 1)),
        ))
    for i in range(1, l):
        out.append(RelCheck(
            "qpres.q-shift-y", (i,),
            _one(wmul(qw, lt("Y", i), qinv)),
            _scaled(sc_inv(p.y), lt("Y", i + 1)),
        ))
    out.append(RelCheck(
        "qpres.q-wrap-y", (),
        _one(wmul(qw, lt("Y", l), qinv)),
        _scaled(sc_mul(p.x, sc_pow(p.y, l - 1)), lt("Y", 1)),
    ))
    return out


def conjugation_lemma_checks(module) -> list[RelCheck]:
    """Both conjugation lemmas for the segment elements Q_{i,j} and P_r."""
    l = module.l
    p = module.params
    out = []
    yinv = sc_inv(p.y)
    for i in range(1, l):
        for j in range(i, l):
            qij = qij_word(i, j)
            qij_inv = winv(qij)
            for r in range(i, j + 1):
                out.append(RelCheck(
                    "segment.q-conj-y", (i, j, r),
                    _one(wmul(qij, lt("Y", r), qij_inv)),
                    _scaled(yinv, lt("Y", r + 1)),
                ))
            for t in range(i + 1, j):
                out.append(RelCheck(
                    "segment.q-conj-t", (i, j, t),
                    _one(wmul(qij, lt("T", t - 1), qij_inv)),
                    _one(lt("T", t)),
                ))
    for r in range(1, l):
        pr = p_word(r, l)
        pr_inv = winv(pr)
        xyr = sc_mul(p.x, sc_pow(p.y, r))
        for s in range(r, l):
            out.append(RelCheck(
                "segment.p-conj-y", (r, s),
                _one(wmul(pr, lt("Y", s + 1), pr_inv)),
                _scaled(xyr, lt("Y", s - r + 1)),
            ))
        for k in range(r + 1, l):
            out.append(RelCheck(
                "segment.p-conj-t", (r, k),
                _one(wmul(pr, lt("T", k), pr_inv)),
                _one(lt("T", k - r)),
            ))
        rhs = wmul(
            tuple(("X", j, 1) for j in range(1, r + 1)),
            *[tij_word(r + t, 1 + t) for t in range(l - r)],
        )
        # exponent 2r(r-l): forced by the quadratic/cross relations, see tests
        out.append(RelCheck(
            "segment.x0-wrap", (r,),
            _one(wmul(x0_word(l), pr_inv)),
            _scaled(sc_pow(p.q, 2 * r * (r - l)), rhs),
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
    """(meta, thunk) pairs for the generic relation runner."""
    from .reports import identity  # reports imports this module

    def sides(vec, chk):
        return (partial(apply_expr, module, chk.lhs, vec), partial(apply_expr, module, chk.rhs, vec)),

    check = identity(sides)
    return [
        ((chk.relation, chk.indices, (), pid), partial(check, vec, chk))
        for chk in checks
        for pid, vec in probes
    ]
