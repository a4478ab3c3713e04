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
order they act, built as the item is made.  Every mode letter is read
from one table L[kind][i][k] (`mode_letters`), and every indices and
modes tuple from a list, both made once per sweep when its first item is
taken and shared by every item and probe that uses them.  A k+ / k- letter
outside its sign range is zero by definition, None in the table, and its
terms are left out as they are built, so the
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


def mode_letters(n, K):
    """
    The table L[kind][i][k] of every mode letter ("mode", kind, i, k) a sweep
    at mode window K states, made once and shared by every check: e and f at
    |k| <= K, and k+ and k- at |k| <= 2K, where a k+ mode at k < 0 and a k-
    mode at k > 0 is zero by definition and its entry is None.
    """
    span, wide = range(-K, K + 1), range(-2 * K, 2 * K + 1)
    L = {kind: [{k: ("mode", kind, i, k) for k in span} for i in range(n + 1)] for kind in ("e", "f")}
    L["k+"] = [{k: ("mode", "k+", i, k) if k >= 0 else None for k in wide} for i in range(n + 1)]
    L["k-"] = [{k: ("mode", "k-", i, k) if k <= 0 else None for k in wide} for i in range(n + 1)]
    return L


def _swap(a, b):
    """The expression a b - b a: letters a and b commute."""
    return (ONE, (b, a)), (MINUS_ONE, (a, b))


def _cleared_terms(gR1, gR, hS1, hS, coeffs):
    """
    LHS - RHS of the cleared template for currents (G, H) twisted by (a, m),
    as an expression of 4 terms, less the two of a Cartan mode of G that is
    zero (None): gR1, gR, hS1 and hS are the letters G_{R+1}, G_R, H_{S-1}
    and H_S, and `coeffs` is (d^m, -q^a, -q^a d^m).
    """
    dm, mqa, mqadm = coeffs
    terms = () if gR1 is None else ((dm, (hS1, gR1)), (mqadm, (gR1, hS1)))
    return terms + (() if gR is None else ((mqa, (hS, gR)), (ONE, (gR, hS))))


def weight_display(ops, i, vec):
    """k_{i,0} in closed form: every term scaled by q to its weight at vertex i."""
    return {key: sc_mul(c, ops.qd(ops.weight(i, key[1]), 0)) for key, c in vec.items()}


def _grid(rows, cols, head=()):
    """[(r, [(c, head + (r, c)) for c in cols]) for r in rows]: each modes tuple made once."""
    return [(r, [(c, head + (r, c)) for c in cols]) for r in rows]


def current_relation_items(ops, K, probes):
    """
    (meta, thunk) pairs for relations 2.1.1 - 2.1.9 at mode window K, made
    as they are consumed; the arguments are checked at the call.  Every mode
    letter, key tuple and twist coefficient is made once per sweep, when the
    first item is taken, and shared by every item and probe that uses it.
    """
    if K < 1:
        raise ValueError(f"mode window K must be at least 1, got {K}")
    cartan = CartanData(ops.n)
    n, q, qd = ops.n, ops.q, ops.qd
    qmqinv, minus_qmqinv = q - qd(-1, 0), qd(-1, 0) - q
    minus_qqinv = -(q + qd(-1, 0))

    def items():
        L = mode_letters(n, K)
        kplus, kminus, span, inner = range(0, K + 1), range(-K, 1), range(-K, K + 1), range(-K + 1, K + 1)
        pairs = [[(i, j) for j in range(n + 1)] for i in range(n + 1)]
        # (d^m, -q^aa, -q^aa d^m) of each pair's two twists (aa, m)
        twists = [[{aa: (qd(0, m), sc_neg(qd(aa, 0)), sc_neg(qd(aa, m))) for aa in (a, -a)}
                   for a, m in ((cartan.a(i, j), cartan.m(i, j)) for j in range(n + 1))] for i in range(n + 1)]
        # (2.1.1) like-sign Cartan currents commute; (2.1.2) degenerates at c = 1 to mixed-sign commutation
        commuting = [(rel, L[K_KIND[s1]], L[K_KIND[s2]], [(ka, [(kb, (s1, ka, s2, kb)) for kb in r2]) for ka in r1])
                     for rel, s1, s2, r1, r2 in (("2.1.1", +1, +1, kplus, kplus), ("2.1.1", -1, -1, kminus, kminus),
                                                 ("2.1.2", +1, -1, kplus, kminus), ("2.1.2", -1, +1, kminus, kplus))]
        # (2.1.3)/(2.1.4): modes R and R+1 stay inside the window or are zero by definition for the sign
        cartan_ef = [(rel, L[K_KIND[sign]], L[kind], exp, _grid(range(-1, K) if sign > 0 else kminus, inner, (sign,)))
                     for rel, sign, kind, exp in (("2.1.3", +1, "e", 1), ("2.1.3", -1, "e", 1),
                                                  ("2.1.4", +1, "f", -1), ("2.1.4", -1, "f", -1))]
        rs = _grid(span, span)  # the (r, s) of 2.1.5, and at 1 - K <= r, s <= K of 2.1.6/2.1.7
        rs_inner = [(r, row[1:]) for r, row in rs[1:]]
        serre = [(k1, [(k2, [(kk, (k1, k2, kk)) for kk in span]) for k2 in range(k1, K + 1)]) for k1 in span]
        unit = (0, 0)
        for pid, vec in probes:
            # (2.1.1) at the zero modes: k_{i,0}^+ and k_{i,0}^- are inverse
            for i in range(n + 1):
                kp, km = L["k+"][i][0], L["k-"][i][0]
                yield (("2.1.1-unit", pairs[i][i], unit, pid),
                       partial(identity, vec, ops, ((ONE, (km, kp)), MINUS_UNIT), ((ONE, (kp, km)), MINUS_UNIT)))

            for i in range(n + 1):
                for j, ij in enumerate(pairs[i]):
                    for rel, G, H, grid in commuting:
                        Gi, Hj = G[i], H[j]
                        for ka, row in grid:
                            g = Gi[ka]
                            for kb, modes in row:
                                yield (rel, ij, modes, pid), partial(identity, vec, ops, _swap(g, Hj[kb]))

                    twist = twists[i][j]
                    a = cartan.a(i, j)
                    # (2.1.3)/(2.1.4): Cartan current against e / f currents
                    for rel, G, H, exp, grid in cartan_ef:
                        Gi, Hj, coeffs = G[i], H[j], twist[exp * a]
                        for R, row in grid:
                            gR1, gR = Gi[R + 1], Gi[R]
                            for S, modes in row:
                                yield ((rel, ij, modes, pid),
                                       partial(identity, vec, ops, _cleared_terms(gR1, gR, Hj[S - 1], Hj[S], coeffs)))

                    # (2.1.5): exchange of e and f closes on the Cartan modes
                    Ei, Fj, KPi, KMi = L["e"][i], L["f"][j], L["k+"][i], L["k-"][i]
                    for r, row in rs:
                        e = Ei[r]
                        for s, modes in row:
                            f = Fj[s]
                            terms = (qmqinv, (f, e)), (minus_qmqinv, (e, f))
                            if i == j:
                                kp, km = KPi[r + s], KMi[r + s]
                                terms += ((MINUS_ONE, (kp,)),) if kp else ()
                                terms += ((ONE, (km,)),) if km else ()
                            yield ("2.1.5", ij, modes, pid), partial(identity, vec, ops, terms)

                    # (2.1.6)/(2.1.7): e-e and f-f exchange with theta twist
                    for rel, kind, coeffs in (("2.1.6", "e", twist[a]), ("2.1.7", "f", twist[-a])):
                        Gi, Hj = L[kind][i], L[kind][j]
                        for r, row in rs_inner:
                            gR1, gR = Gi[r], Gi[r - 1]
                            for s, modes in row:
                                yield ((rel, ij, modes, pid),
                                       partial(identity, vec, ops, _cleared_terms(gR1, gR, Hj[s - 1], Hj[s], coeffs)))

            # (2.1.8)/(2.1.9): cubic Serre relations, symmetrized over z1 <-> z2
            for i, j in cartan.adjacent_pairs():
                ij = pairs[i][j]
                for rel, kind in (("2.1.8", "e"), ("2.1.9", "f")):
                    Gi, Gj = L[kind][i], L[kind][j]
                    for k1, rows in serre:
                        a = Gi[k1]
                        for k2, row in rows:  # the z1 <-> z2 symmetrization makes (k1,k2) ~ (k2,k1)
                            b = Gi[k2]
                            for kk, modes in row:
                                c = Gj[kk]
                                if k1 == k2:
                                    terms = (ONE, (c, a, a)), (minus_qqinv, (a, c, a)), (ONE, (a, a, c))
                                else:
                                    terms = ((ONE, (c, b, a)), (minus_qqinv, (b, c, a)), (ONE, (b, a, c)),
                                             (ONE, (c, a, b)), (minus_qqinv, (a, c, b)), (ONE, (a, b, c)))
                                yield (rel, ij, modes, pid), partial(identity, vec, ops, terms)
    return items()


def integrability_items(ops, K, probes):
    """Weight decomposition with q-power eigenvalues, and mode nilpotency of order <= l + 1."""
    n, l = ops.n, ops.l

    def items():
        # each key tuple and each nilpotency residual is made once per sweep, shared by every probe
        index = [(i,) for i in range(n + 1)]
        weight = [(ONE, (("mode", "k+", i, 0),)) for i in range(n + 1)]
        modes = [(k,) for k in range(-K, K + 1)]
        # e and f share a key; the runner's stable sort keeps e first
        nilpotent = [(index[i], [(m, ((ONE, (("mode", kind, i, m[0]),) * (l + 1)),))
                                 for kind in ("e", "f") for m in modes]) for i in range(n + 1)]
        for pid, vec in probes:
            for i in range(n + 1):
                display = partial(weight_display, ops, i, vec)
                yield (("int.weight", index[i], (0,), pid),
                       partial(identity, vec, ops, (weight[i], (MINUS_ONE, display))))
            for idx, checks in nilpotent:
                for m, residual in checks:
                    yield ("int.nilpotent", idx, m, pid), partial(identity, vec, ops, residual)
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
