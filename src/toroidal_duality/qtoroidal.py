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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .duality import dvec_add, nondecreasing_tuples
from .hecke import WindowBudget, vec_scale, vec_sub
from .reports import identity
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


def _kmode(ops, sign, i, k, vec, budget):
    """k+ modes live at k >= 0 and k- modes at k <= 0; outside they are zero."""
    if sign > 0:
        if k < 0:
            return {}
        return ops.mode("k+", i, k, vec, budget)
    if k > 0:
        return {}
    return ops.mode("k-", i, k, vec, budget)


def _pair_cleared(left, right, coeffs, R, S, vec, budget):
    """
    LHS - RHS of the cleared template for currents (left, right) twisted by
    (a, m), where `coeffs` is (d^m, -q^a, -q^a d^m).
    """
    dm, mqa, mqadm = coeffs
    acc = {}
    hR1 = left(R + 1, right(S - 1, dict(vec), budget), budget)
    dvec_add(acc, hR1.items(), dm)
    hRS = left(R, right(S, dict(vec), budget), budget)
    dvec_add(acc, hRS.items(), mqa)
    gSR = right(S - 1, left(R + 1, dict(vec), budget), budget)
    dvec_add(acc, gSR.items(), mqadm)
    gSS = right(S, left(R, dict(vec), budget), budget)
    dvec_add(acc, gSS.items(), Fraction(1))
    return acc


def weight_display(ops, i, vec):
    """k_{i,0} in closed form: every term scaled by q to its weight at vertex i."""
    return {key: sc_mul(c, sc_pow(ops.q, ops.weight(i, key[1]))) for key, c in vec.items()}


def current_relation_items(ops, K, probes):
    """(meta, thunk) pairs for relations 2.1.1 - 2.1.9 at mode window K."""
    if ops.params.c != Fraction(1):
        raise ValueError("relation sweeps are defined at trivial central charge only")
    assert K >= 1
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

    def unit_thunk(i, vec):
        budget = WindowBudget()
        one = ops.mode("k+", i, 0, ops.mode("k-", i, 0, dict(vec), budget), budget)
        two = ops.mode("k-", i, 0, ops.mode("k+", i, 0, dict(vec), budget), budget)
        ok = not vec_sub(one, vec) and not vec_sub(two, vec)
        return ok, budget.ok(), "" if ok else "k0 inverse fails"

    # (2.1.1): like-sign Cartan currents commute; (2.1.2) degenerates at c = 1
    # to mixed-sign commutation
    comm = identity(
        lambda b, i, j, s1, ka, s2, kb, vec: _kmode(ops, s1, i, ka, _kmode(ops, s2, j, kb, dict(vec), b), b),
        lambda b, i, j, s1, ka, s2, kb, vec: _kmode(ops, s2, j, kb, _kmode(ops, s1, i, ka, dict(vec), b), b),
    )

    # (2.1.3)/(2.1.4): Cartan current against e / f currents
    @identity
    def cartan_exchange(b, i, j, sign, other_kind, coeffs, R, S, vec):
        left = lambda kk, v, bb: _kmode(ops, sign, i, kk, v, bb)
        right = lambda kk, v, bb: ops.mode(other_kind, j, kk, v, bb)
        return _pair_cleared(left, right, coeffs, R, S, vec, b)

    # (2.1.5): exchange of e and f closes on the Cartan modes
    def ef_lhs(b, i, j, r, s, vec):
        ef = ops.mode("e", i, r, ops.mode("f", j, s, dict(vec), b), b)
        fe = ops.mode("f", j, s, ops.mode("e", i, r, dict(vec), b), b)
        return vec_scale(qmqinv, vec_sub(ef, fe))

    def ef_rhs(b, i, j, r, s, vec):
        rhs = {}
        if i == j:
            h = r + s
            if h >= 0:
                dvec_add(rhs, ops.mode("k+", i, h, dict(vec), b).items())
            if h <= 0:
                dvec_add(rhs, ops.mode("k-", i, h, dict(vec), b).items(), Fraction(-1))
        return rhs

    ef_exchange = identity(ef_lhs, ef_rhs)

    # (2.1.6)/(2.1.7): e-e and f-f exchange with theta twist
    @identity
    def like_exchange(b, i, j, kind, coeffs, r, s, vec):
        left = lambda kk, v, bb: ops.mode(kind, i, kk, v, bb)
        right = lambda kk, v, bb: ops.mode(kind, j, kk, v, bb)
        return _pair_cleared(left, right, coeffs, r - 1, s, vec, b)

    # (2.1.8)/(2.1.9): cubic Serre relations, symmetrized over z1 <-> z2
    @identity
    def serre(b, i, j, kind, k1, k2, kk, vec):
        def word(aaa, bbb, ccc):
            v = ops.mode(kind, *ccc, dict(vec), b)
            v = ops.mode(kind, *bbb, v, b)
            return ops.mode(kind, *aaa, v, b)

        acc = {}
        for m1, m2 in ((k1, k2),) if k1 == k2 else ((k1, k2), (k2, k1)):
            dvec_add(acc, word((i, m1), (i, m2), (j, kk)).items())
            dvec_add(acc, word((i, m1), (j, kk), (i, m2)).items(), minus_qqinv)
            dvec_add(acc, word((j, kk), (i, m1), (i, m2)).items())
        return acc

    kplus_range = list(range(0, K + 1))
    kminus_range = list(range(-K, 1))
    e_range = list(range(-K, K + 1))

    for pid, vec in probes:
        for i in range(n + 1):
            emit("2.1.1-unit", (i, i), (0, 0), pid, partial(unit_thunk, i, vec))

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
                                 partial(comm, i, j, s1, ka, s2, kb, vec))

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
                                 partial(cartan_exchange, i, j, sign, other_kind, coeffs, R, S, vec))

                for r in e_range:
                    for s in e_range:
                        emit("2.1.5", (i, j), (r, s), pid, partial(ef_exchange, i, j, r, s, vec))

                for rel, kind, aa in (("2.1.6", "e", a), ("2.1.7", "f", -a)):
                    coeffs = twist(aa, m)
                    for r in range(-K + 1, K + 1):
                        for s in range(-K + 1, K + 1):
                            emit(rel, (i, j), (r, s), pid,
                                 partial(like_exchange, i, j, kind, coeffs, r, s, vec))

        for i, j in cartan.adjacent_pairs():
            for rel, kind in (("2.1.8", "e"), ("2.1.9", "f")):
                for k1 in e_range:
                    for k2 in e_range:
                        if k2 < k1:
                            continue  # the z1 <-> z2 symmetrization makes (k1,k2) ~ (k2,k1)
                        for kk in e_range:
                            emit(rel, (i, j), (k1, k2, kk), pid,
                                 partial(serre, i, j, kind, k1, k2, kk, vec))
    return items


def integrability_items(ops, K, probes):
    """Weight decomposition with q-power eigenvalues, and mode nilpotency of order <= l + 1."""
    n, l = ops.n, ops.l
    weight = identity(
        lambda b, i, vec: ops.mode("k+", i, 0, dict(vec), b),
        lambda b, i, vec: weight_display(ops, i, vec),
    )

    @identity
    def nilpotent(b, i, kind, k, vec):
        v = dict(vec)
        for _ in range(l + 1):
            v = ops.mode(kind, i, k, v, b)
            if not v:
                break
        return v

    items = []
    for pid, vec in probes:
        for i in range(n + 1):
            items.append((("int.weight", (i,), (0,), pid), partial(weight, i, vec)))
        for i in range(n + 1):
            for kind in ("e", "f"):
                for k in range(-K, K + 1):
                    items.append((("int.nilpotent", (i,), (k,), pid), partial(nilpotent, i, kind, k, vec)))
    return items


def central_charge_items(ops, probes):
    """k_{0,0} k_{1,0} ... k_{n,0} = id, plus a mixed-sign commutation spot check."""
    n = ops.n

    def k_product(b, vec):
        v = dict(vec)
        for i in range(n, -1, -1):
            v = ops.mode("k+", i, 0, v, b)
        return v

    product = identity(k_product, lambda b, vec: vec)
    mixed = identity(
        lambda b, i, j, vec: ops.mode("k+", i, 1, ops.mode("k-", j, -1, dict(vec), b), b),
        lambda b, i, j, vec: ops.mode("k-", j, -1, ops.mode("k+", i, 1, dict(vec), b), b),
    )
    items = []
    for pid, vec in probes:
        items.append((("cc.k-product", (), (), pid), partial(product, vec)))
        for i in range(n + 1):
            for j in range(n + 1):
                items.append((("cc.kpm-comm", (i, j), (1, -1), pid), partial(mixed, i, j, vec)))
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
