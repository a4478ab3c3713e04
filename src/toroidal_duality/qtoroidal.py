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
All checks run at trivial central charge, which every module here has.

Every instance is stated as data: its thunk is partial(identity, vec, ops,
residual), the residual lhs - rhs as signed terms, each a q-power
coefficient and a word of mode letters ("mode", kind, i, k) listed in the
order they act, built as the item is made; a letter that an outer loop
fixes is built once in that loop.  A term with a k+ / k- letter outside
its sign range is zero by definition and left out as it is built, so the
sweeps need nothing more of the module than the modes `ops.mode` accepts,
`q`, and `weight` and the monomial table `qd`, (a, b) -> q^a d^b, for the
coefficients and the weight display.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .duality import dvec_add, nondecreasing_tuples  # noqa: F401 (perfbench/layers.py traces dvec_add by this name)
from .reports import MINUS_ONE, MINUS_UNIT, ONE, identity
from .scalars import sc_mul, sc_neg


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
    """The expression a b - b a: letters a and b commute."""
    return (ONE, (b, a)), (MINUS_ONE, (a, b))


def _cleared_terms(left, right, coeffs, R, S):
    """
    LHS - RHS of the cleared template for currents (left, right) twisted by
    (a, m), as an expression of 4 terms, less the two of a zero Cartan mode
    `left`.  `left` and `right` are mode letters without their mode, and
    `coeffs` is (d^m, -q^a, -q^a d^m).
    """
    dm, mqa, mqadm = coeffs
    gR1, gR, hS1, hS = left + (R + 1,), left + (R,), right + (S - 1,), right + (S,)
    terms = () if _zero(gR1) else ((dm, (hS1, gR1)), (mqadm, (gR1, hS1)))
    return terms + (() if _zero(gR) else ((mqa, (hS, gR)), (ONE, (gR, hS))))


def weight_display(ops, i, vec):
    """k_{i,0} in closed form: every term scaled by q to its weight at vertex i."""
    return {key: sc_mul(c, ops.qd(ops.weight(i, key[1]), 0)) for key, c in vec.items()}


def current_relation_items(ops, K, probes):
    """
    (meta, thunk) pairs for relations 2.1.1 - 2.1.9 at mode window K, made
    as they are consumed; the arguments are checked at the call.
    """
    if K < 1:
        raise ValueError(f"mode window K must be at least 1, got {K}")
    cartan = CartanData(ops.n)
    n, q, qd = ops.n, ops.q, ops.qd
    qmqinv, minus_qmqinv = q - qd(-1, 0), qd(-1, 0) - q
    minus_qqinv = -(q + qd(-1, 0))

    kplus_range = list(range(0, K + 1))
    kminus_range = list(range(-K, 1))
    e_range = list(range(-K, K + 1))
    pairs = [[(i, j) for j in range(n + 1)] for i in range(n + 1)]  # each (i, j) key tuple, shared by its items

    def items():
        for pid, vec in probes:
            # (2.1.1) at the zero modes: k_{i,0}^+ and k_{i,0}^- are inverse
            for i in range(n + 1):
                kp, km = ("mode", "k+", i, 0), ("mode", "k-", i, 0)
                yield (("2.1.1-unit", pairs[i][i], (0, 0), pid),
                       partial(identity, vec, ops, ((ONE, (km, kp)), MINUS_UNIT), ((ONE, (kp, km)), MINUS_UNIT)))

            for i in range(n + 1):
                for j, ij in enumerate(pairs[i]):
                    # (2.1.1): like-sign Cartan currents commute; (2.1.2) degenerates
                    # at c = 1 to mixed-sign commutation
                    for rel, s1, s2, range1, range2 in (
                        ("2.1.1", +1, +1, kplus_range, kplus_range),
                        ("2.1.1", -1, -1, kminus_range, kminus_range),
                        ("2.1.2", +1, -1, kplus_range, kminus_range),
                        ("2.1.2", -1, +1, kminus_range, kplus_range),
                    ):
                        for ka in range1:
                            g = ("mode", K_KIND[s1], i, ka)
                            for kb in range2:
                                yield ((rel, ij, (s1, ka, s2, kb), pid),
                                       partial(identity, vec, ops, _swap(g, ("mode", K_KIND[s2], j, kb))))

                    a = cartan.a(i, j)
                    m = cartan.m(i, j)
                    # (d^m, -q^aa, -q^aa d^m) of this pair's two twists (aa, m)
                    twist = {aa: (qd(0, m), sc_neg(qd(aa, 0)), sc_neg(qd(aa, m))) for aa in (a, -a)}
                    # (2.1.3)/(2.1.4): Cartan current against e / f currents
                    for rel, sign, other_kind, aa in (
                        ("2.1.3", +1, "e", a),
                        ("2.1.3", -1, "e", a),
                        ("2.1.4", +1, "f", -a),
                        ("2.1.4", -1, "f", -a),
                    ):
                        # modes R and R+1 must stay inside the window or be
                        # definitionally zero for the given sign
                        Rs = range(-1, K) if sign > 0 else kminus_range
                        left, right, coeffs = ("mode", K_KIND[sign], i), ("mode", other_kind, j), twist[aa]
                        for R in Rs:
                            for S in range(-K + 1, K + 1):
                                yield ((rel, ij, (sign, R, S), pid),
                                       partial(identity, vec, ops, _cleared_terms(left, right, coeffs, R, S)))

                    # (2.1.5): exchange of e and f closes on the Cartan modes
                    for r in e_range:
                        e = ("mode", "e", i, r)
                        for s in e_range:
                            f = ("mode", "f", j, s)
                            terms = (qmqinv, (f, e)), (minus_qmqinv, (e, f))
                            if i == j:
                                kp, km = ("mode", "k+", i, r + s), ("mode", "k-", i, r + s)
                                terms += tuple(t for t in ((MINUS_ONE, (kp,)), (ONE, (km,))) if not _zero(t[1][0]))
                            yield ("2.1.5", ij, (r, s), pid), partial(identity, vec, ops, terms)

                    # (2.1.6)/(2.1.7): e-e and f-f exchange with theta twist
                    for rel, kind, aa in (("2.1.6", "e", a), ("2.1.7", "f", -a)):
                        left, right, coeffs = ("mode", kind, i), ("mode", kind, j), twist[aa]
                        for r in range(-K + 1, K + 1):
                            for s in range(-K + 1, K + 1):
                                yield ((rel, ij, (r, s), pid),
                                       partial(identity, vec, ops, _cleared_terms(left, right, coeffs, r - 1, s)))

            # (2.1.8)/(2.1.9): cubic Serre relations, symmetrized over z1 <-> z2
            for i, j in cartan.adjacent_pairs():
                ij = pairs[i][j]
                for rel, kind in (("2.1.8", "e"), ("2.1.9", "f")):
                    for k1 in e_range:
                        a = ("mode", kind, i, k1)
                        for k2 in range(k1, K + 1):  # the z1 <-> z2 symmetrization makes (k1,k2) ~ (k2,k1)
                            b = ("mode", kind, i, k2)
                            for kk in e_range:
                                c = ("mode", kind, j, kk)
                                if k1 == k2:
                                    terms = (ONE, (c, a, a)), (minus_qqinv, (a, c, a)), (ONE, (a, a, c))
                                else:
                                    terms = ((ONE, (c, b, a)), (minus_qqinv, (b, c, a)), (ONE, (b, a, c)),
                                             (ONE, (c, a, b)), (minus_qqinv, (a, c, b)), (ONE, (a, b, c)))
                                yield (rel, ij, (k1, k2, kk), pid), partial(identity, vec, ops, terms)
    return items()


def integrability_items(ops, K, probes):
    """Weight decomposition with q-power eigenvalues, and mode nilpotency of order <= l + 1."""
    n, l = ops.n, ops.l

    def items():
        for pid, vec in probes:
            for i in range(n + 1):
                display = partial(weight_display, ops, i, vec)
                yield (("int.weight", (i,), (0,), pid),
                       partial(identity, vec, ops, ((ONE, (("mode", "k+", i, 0),)), (MINUS_ONE, display))))
            for i in range(n + 1):
                for kind in ("e", "f"):  # e and f share a key; the runner's stable sort keeps e first
                    for k in range(-K, K + 1):
                        yield (("int.nilpotent", (i,), (k,), pid),
                               partial(identity, vec, ops, ((ONE, (("mode", kind, i, k),) * (l + 1)),)))
    return items()


def central_charge_items(ops, probes):
    """k_{0,0} k_{1,0} ... k_{n,0} = id, plus a mixed-sign commutation spot check."""
    n = ops.n
    product = (ONE, tuple(("mode", "k+", i, 0) for i in range(n, -1, -1))), MINUS_UNIT
    mixed = [((i, j), _swap(("mode", "k+", i, 1), ("mode", "k-", j, -1)))
             for i in range(n + 1) for j in range(n + 1)]

    def items():
        for pid, vec in probes:
            yield ("cc.k-product", (), (), pid), partial(identity, vec, ops, product)
            for ij, swap in mixed:
                yield ("cc.kpm-comm", ij, (1, -1), pid), partial(identity, vec, ops, swap)
    return items()


def level_weight_set(n, l):
    """All finite-type weight vectors occurring in V^(x)l."""
    out = set()
    for jt in nondecreasing_tuples(n, l):
        out.add(tuple(jt.count(i) - jt.count(i + 1) for i in range(1, n + 1)))
    return out


def level_items(ops, probes):
    """Necessary level-l condition: observed finite weights lie in the V^(x)l weight set."""
    allowed = level_weight_set(ops.n, ops.l)

    def level_thunk(vec):
        seen = {
            tuple(ops.weight(i, jt) for i in range(1, ops.n + 1))
            for (_, jt) in vec.keys()
        }
        bad = seen - allowed
        return f"foreign weights {sorted(bad)[:3]}" if bad else ""

    return ((("level.weights", (), (), pid), partial(level_thunk, vec)) for pid, vec in probes)
