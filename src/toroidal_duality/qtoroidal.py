"""
Structure constants of the cyclic diagram and the denominator-cleared
relation sweeps for the current algebra, generic over any module exposing
Fourier-mode operators.

Every relation with a rational multiplier theta_m(u) = (q^m u - 1)/(u - q^m)
is cross-multiplied into a polynomial coefficient identity before checking,
so each instance is a finite exact statement.  With u = d^m_ij z/w the
template for a current pair (G, H) twisted by (a, m) reads, per output
coefficient of z^-R w^-S,

    d^m G_{R+1} H_{S-1} - q^a G_R H_S
        = q^a d^m H_{S-1} G_{R+1} - H_S G_R ,

which at the zero modes specializes to the familiar q-commutator form.
All checks run at trivial central charge; central extensions are refused.

Every instance is stated as data for `reports.identity`: words in the mode
letters ("mode", kind, i, k), with q-power coefficients, built when the
item's thunk runs.  A term with a k+ / k- letter outside its sign range is
zero by definition and left out as it is built, so the sweeps need nothing
more of the module than the modes `ops.mode` accepts (and `weight`, `q` for
the weight display).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .duality import dvec_add, nondecreasing_tuples  # noqa: F401 (perfbench/layers.py traces dvec_add by this name)
from .reports import MINUS_ONE, ONE, UNIT, identity
from .scalars import sc_inv, sc_mul, sc_pow


@dataclass(frozen=True)
class CartanData:
    """Entry accessors for the cyclic [n] x [n] matrices A (symmetric) and M (antisymmetric)."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("cyclic diagram needs n >= 2")

    def _check(self, i, j):
        if not (0 <= i <= self.n and 0 <= j <= self.n):
            raise IndexError(f"vertex out of range: {(i, j)}")

    def a(self, i, j):
        self._check(i, j)
        if i == j:
            return 2
        if (j - i) % (self.n + 1) in (1, self.n):
            return -1
        return 0

    def m(self, i, j):
        self._check(i, j)
        d = (j - i) % (self.n + 1)
        if d == 1:
            return -1
        if d == self.n:
            return 1
        return 0

    def adjacent_pairs(self):
        return [
            (i, j)
            for i in range(self.n + 1)
            for j in range(self.n + 1)
            if self.a(i, j) == -1
        ]


K_KIND = {+1: "k+", -1: "k-"}


def _zero(letter):
    """Whether a mode letter is zero by definition: k+ modes live at k >= 0 and k- modes at k <= 0."""
    return letter[1] == "k+" and letter[3] < 0 or letter[1] == "k-" and letter[3] > 0


def _swap(a, b):
    """The pair (a b, b a): letters a and b commute."""
    return ((ONE, (a, b)),), ((ONE, (b, a)),)


def _cleared_terms(left, right, coeffs, R, S):
    """
    LHS - RHS of the cleared template for currents (left, right) twisted by
    (a, m), as an expression of 4 terms, less the two of a zero Cartan mode
    `left`.  `left` and `right` are mode letters without their mode, and
    `coeffs` is (d^m, -q^a, -q^a d^m).
    """
    dm, mqa, mqadm = coeffs
    gR1, gR, hS1, hS = left + (R + 1,), left + (R,), right + (S - 1,), right + (S,)
    terms = () if _zero(gR1) else ((dm, (gR1, hS1)), (mqadm, (hS1, gR1)))
    return terms + (() if _zero(gR) else ((mqa, (gR, hS)), (ONE, (hS, gR))))


def weight_display(ops, i, vec, budget=None):
    """k_{i,0} in closed form: every term scaled by q to its weight at vertex i (no budget used)."""
    return {key: sc_mul(c, sc_pow(ops.q, ops.weight(i, key[1]))) for key, c in vec.items()}


def current_relation_items(ops, K, probes):
    """(meta, thunk) pairs for relations 2.1.1 - 2.1.9 at mode window K."""
    if ops.params.c != Fraction(1):
        raise ValueError("relation sweeps are defined at trivial central charge only")
    if K < 1:
        raise ValueError(f"mode window K must be at least 1, got {K}")
    cartan = CartanData(ops.n)
    n = ops.n
    q, d = ops.q, ops.d
    qmqinv = q - sc_inv(q)
    minus_qqinv = -(q + sc_inv(q))
    twists = {}
    items = []

    def twist(a, m):
        """(d^m, -q^a, -q^a d^m), computed once per twist (a, m)."""
        if (a, m) not in twists:
            dm, qa = sc_pow(d, m), sc_pow(q, a)
            twists[a, m] = (dm, -qa, -sc_mul(qa, dm))
        return twists[a, m]

    def emit(rel, ij, modes, pid, thunk):
        items.append(((rel, ij, modes, pid), thunk))

    # (2.1.1) at the zero modes: k_{i,0}^+ and k_{i,0}^- are inverse
    @partial(identity, ops=ops)
    def unit(vec, i):
        kp, km = ("mode", "k+", i, 0), ("mode", "k-", i, 0)
        return (((ONE, (kp, km)),), UNIT), (((ONE, (km, kp)),), UNIT)

    # (2.1.1): like-sign Cartan currents commute; (2.1.2) degenerates at c = 1
    # to mixed-sign commutation
    @partial(identity, ops=ops)
    def comm(vec, i, j, s1, ka, s2, kb):
        return _swap(("mode", K_KIND[s1], i, ka), ("mode", K_KIND[s2], j, kb)),

    # (2.1.3)/(2.1.4): Cartan current against e / f currents
    @partial(identity, ops=ops)
    def cartan_exchange(vec, i, j, sign, other_kind, coeffs, R, S):
        return (_cleared_terms(("mode", K_KIND[sign], i), ("mode", other_kind, j), coeffs, R, S), ()),

    # (2.1.5): exchange of e and f closes on the Cartan modes
    @partial(identity, ops=ops)
    def ef_exchange(vec, i, j, r, s):
        e, f = ("mode", "e", i, r), ("mode", "f", j, s)
        lhs = ((qmqinv, (e, f)), (-qmqinv, (f, e)))
        kp, km = ("mode", "k+", i, r + s), ("mode", "k-", i, r + s)
        rhs = tuple(t for t in ((ONE, (kp,)), (MINUS_ONE, (km,))) if not _zero(t[1][0])) if i == j else ()
        return (lhs, rhs),

    # (2.1.6)/(2.1.7): e-e and f-f exchange with theta twist
    @partial(identity, ops=ops)
    def like_exchange(vec, i, j, kind, coeffs, r, s):
        return (_cleared_terms(("mode", kind, i), ("mode", kind, j), coeffs, r - 1, s), ()),

    # (2.1.8)/(2.1.9): cubic Serre relations, symmetrized over z1 <-> z2
    @partial(identity, ops=ops)
    def serre(vec, i, j, kind, k1, k2, kk):
        c = ("mode", kind, j, kk)
        terms = ()
        for m1, m2 in ((k1, k2),) if k1 == k2 else ((k1, k2), (k2, k1)):
            a, b = ("mode", kind, i, m1), ("mode", kind, i, m2)
            terms += ((ONE, (a, b, c)), (minus_qqinv, (a, c, b)), (ONE, (c, a, b)))
        return (terms, ()),

    kplus_range = list(range(0, K + 1))
    kminus_range = list(range(-K, 1))
    e_range = list(range(-K, K + 1))

    for pid, vec in probes:
        for i in range(n + 1):
            emit("2.1.1-unit", (i, i), (0, 0), pid, partial(unit, vec, i))

        for i in range(n + 1):
            for j in range(n + 1):
                for rel, s1, s2, range1, range2 in (
                    ("2.1.1", +1, +1, kplus_range, kplus_range),
                    ("2.1.1", -1, -1, kminus_range, kminus_range),
                    ("2.1.2", +1, -1, kplus_range, kminus_range),
                    ("2.1.2", -1, +1, kminus_range, kplus_range),
                ):
                    for ka in range1:
                        for kb in range2:
                            emit(rel, (i, j), (s1, ka, s2, kb), pid,
                                 partial(comm, vec, i, j, s1, ka, s2, kb))

                a = cartan.a(i, j)
                m = cartan.m(i, j)
                for rel, sign, other_kind, aa in (
                    ("2.1.3", +1, "e", a),
                    ("2.1.3", -1, "e", a),
                    ("2.1.4", +1, "f", -a),
                    ("2.1.4", -1, "f", -a),
                ):
                    # modes R and R+1 must stay inside the window or be
                    # definitionally zero for the given sign
                    Rs = [-1] + kplus_range[:-1] if sign > 0 else kminus_range
                    Rs = sorted(set(Rs))
                    coeffs = twist(aa, m)
                    for R in Rs:
                        for S in range(-K + 1, K + 1):
                            emit(rel, (i, j), (sign, R, S), pid,
                                 partial(cartan_exchange, vec, i, j, sign, other_kind, coeffs, R, S))

                for r in e_range:
                    for s in e_range:
                        emit("2.1.5", (i, j), (r, s), pid, partial(ef_exchange, vec, i, j, r, s))

                for rel, kind, aa in (("2.1.6", "e", a), ("2.1.7", "f", -a)):
                    coeffs = twist(aa, m)
                    for r in range(-K + 1, K + 1):
                        for s in range(-K + 1, K + 1):
                            emit(rel, (i, j), (r, s), pid,
                                 partial(like_exchange, vec, i, j, kind, coeffs, r, s))

        for i, j in cartan.adjacent_pairs():
            for rel, kind in (("2.1.8", "e"), ("2.1.9", "f")):
                for k1 in e_range:
                    for k2 in e_range:
                        if k2 < k1:
                            continue  # the z1 <-> z2 symmetrization makes (k1,k2) ~ (k2,k1)
                        for kk in e_range:
                            emit(rel, (i, j), (k1, k2, kk), pid,
                                 partial(serre, vec, i, j, kind, k1, k2, kk))
    return items


def integrability_items(ops, K, probes):
    """Weight decomposition with q-power eigenvalues, and mode nilpotency of order <= l + 1."""
    n, l = ops.n, ops.l

    @partial(identity, ops=ops)
    def weight(vec, i):
        return (((ONE, (("mode", "k+", i, 0),)),), partial(weight_display, ops, i, vec)),

    @partial(identity, ops=ops)
    def nilpotent(vec, i, kind, k):
        return (((ONE, (("mode", kind, i, k),) * (l + 1)),), ()),

    items = []
    for pid, vec in probes:
        for i in range(n + 1):
            items.append((("int.weight", (i,), (0,), pid), partial(weight, vec, i)))
        for i in range(n + 1):
            for kind in ("e", "f"):
                for k in range(-K, K + 1):
                    items.append((("int.nilpotent", (i,), (k,), pid), partial(nilpotent, vec, i, kind, k)))
    return items


def central_charge_items(ops, probes):
    """k_{0,0} k_{1,0} ... k_{n,0} = id, plus a mixed-sign commutation spot check."""
    n = ops.n

    @partial(identity, ops=ops)
    def product(vec):
        return (((ONE, tuple(("mode", "k+", i, 0) for i in range(n + 1))),), UNIT),

    @partial(identity, ops=ops)
    def mixed(vec, i, j):
        return _swap(("mode", "k+", i, 1), ("mode", "k-", j, -1)),

    items = []
    for pid, vec in probes:
        items.append((("cc.k-product", (), (), pid), partial(product, vec)))
        for i in range(n + 1):
            for j in range(n + 1):
                items.append((("cc.kpm-comm", (i, j), (1, -1), pid), partial(mixed, vec, i, j)))
    return items


def level_weight_set(n, l):
    """All finite-type weight vectors occurring in V^(x)l."""
    out = set()
    for jt in nondecreasing_tuples(n, l):
        out.add(tuple(
            sum(1 for v in jt if v == i) - sum(1 for v in jt if v == i + 1)
            for i in range(1, n + 1)
        ))
    return out


def level_items(ops, probes):
    """Necessary level-l condition: observed finite weights lie in the V^(x)l weight set."""
    allowed = level_weight_set(ops.n, ops.l)
    items = []
    for pid, vec in probes:
        def level_thunk(vec=vec):
            seen = {
                tuple(ops.weight(i, jt) for i in range(1, ops.n + 1))
                for (_, jt) in vec.keys()
            }
            bad = seen - allowed
            return (not bad), True, "" if not bad else f"foreign weights {sorted(bad)[:3]}"
        items.append((("level.weights", (), (), pid), level_thunk))
    return items
