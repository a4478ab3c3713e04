"""
Closed-form regressions and conjugation/intertwining suites for the duality
module: everything that pins the operator implementation against an
independently written formula rather than against an algebra relation.

Every check is stated as data: its thunk is partial(identity, vec, ops,
*residuals) (see `reports` for the letters), each residual lhs - rhs built
as the item is made, whose words list their letters in acting order.  A
closed form places its Hecke vectors on their slot tuples and straightens
them with `DualityModule.place`.  The intertwining checks need images of
Kac-Moody generators under the braid-group automorphisms, composed
symbolically as noncommutative polynomials in the generator symbols (the
diagram has no edges of weight below -1, so no divided powers survive in
the tables): words over the same alphabet, in acting order too.  Their coefficients are all +-q^a d^b, so
they are composed as (sign, a, b); the tables are the negated right sides,
so the last pass makes each distinct coefficient, sign flipped, a scalar
once from the module's monomial table `qd`, which every q^a d^b a check
states is read from.  The translation images are built once per call: from
the letter images of tau', the letter images tau' t'_n ... t'_i(x) are
composed level by level, and each image acts after t_omega1, shared by
every probe; words that begin with the same letters share the memo's nodes.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from operator import itemgetter

from .duality import dvec_add, fund_ktheta_exp
from .hecke import RelCheck, apply_expr, apply_word, lt, make_hecke_items, tij_word, vec_scale, wmul
from .qtoroidal import CartanData, weight_display
from .reports import MINUS_ONE, MINUS_UNIT, ONE, identity
from .scalars import sc_mul, sc_neg
from .series import theta_expand

PSI, PSI_INV, TAU, T_OMEGA1, STRAIGHTEN = ("psi",), ("psi_inv",), ("tau",), ("t_omega1",), ("straighten",)
KINDS = ("e", "f", "k+", "k-")
_WORD = itemgetter(1)  # the word of a term (coeff, word)


def _mode_range(kind, K):
    if kind == "e" or kind == "f":
        return range(-K, K + 1)
    if kind == "k+":
        return range(0, K + 1)
    return range(-K, 1)


# -- psi conjugation (diagram rotation on currents) ---------------------------


def psi_conjugation_items(dmod, K, probes):
    """Modewise psi^-1 g_{i,k} psi = (q^-1 d)^-k g_{i-1,k}, plus the double twist."""
    n, qd = dmod.n, dmod.qd
    minus = {k: sc_neg(qd(k, -k)) for k in range(-2 * K, 2 * K + 1)}  # -(q^-1 d)^-k, each made once

    def items():
        for pid, vec in probes:
            for i in range(n + 1):
                for kind in KINDS:
                    for k in _mode_range(kind, K):
                        shift = ((ONE, (PSI, ("mode", kind, i, k), PSI_INV)),
                                 (minus[k], (("mode", kind, (i - 1) % (n + 1), k),)))
                        yield (f"psi.shift-{kind}", (i,), (k,), pid), partial(identity, vec, dmod, shift)
            for kind in KINDS:
                for k in _mode_range(kind, K):
                    double = ((ONE, (PSI, PSI, ("mode", kind, 1, k), PSI_INV, PSI_INV)),
                              (minus[2 * k], (("mode", kind, n, k),)))
                    yield (f"psi.double-{kind}", (1, n), (k,), pid), partial(identity, vec, dmod, double)
    return items()


# -- braid-automorphism images as noncommutative expressions ------------------


def _affine_a(cartan, i, j):
    return cartan.a(i % (cartan.n + 1), j % (cartan.n + 1))


def _si(i, j, n):
    """Transposition (i, i+1) acting on the affine vertex set 1..n+1 (i <= n)."""
    if j == i:
        return i + 1
    if j == i + 1:
        return i
    return j


# coefficients of the tables, (sign, q exponent, d exponent): +1 and -1
PLUS, MINUS = (1, 0, 0), (-1, 0, 0)


def tprime_symbol(i, sym, cartan):
    """
    Image of one generator symbol under the vertex-i automorphism: an NC
    expression whose coefficients are (sign, q exponent, d exponent) and
    whose words list their letters in acting order.
    """
    kind, j = sym
    a = _affine_a(cartan, i, j)
    if kind in ("k", "kinv"):
        # Cartan generators move by the weight-lattice reflection:
        # k_j |-> k_j k_i^{-a_ij} (the printed index swap is its epsilon-basis shorthand)
        inv = {"k": "kinv", "kinv": "k"}
        if a == 2:
            return ((PLUS, ((inv[kind], i),)),)
        if a == 0:
            return ((PLUS, (sym,)),)
        return ((PLUS, ((kind, i), sym)),)
    if kind == "e":
        if j == i:
            return ((MINUS, (("k", i), ("f", i))),)
        if a == 0:
            return ((PLUS, (sym,)),)
        return ((MINUS, (("e", j), ("e", i))), ((1, -1, 0), (("e", i), ("e", j))))
    if kind == "f":
        if j == i:
            return ((MINUS, (("e", i), ("kinv", i))),)
        if a == 0:
            return ((PLUS, (sym,)),)
        return ((MINUS, (("f", i), ("f", j))), ((1, 1, 0), (("f", j), ("f", i))))
    raise ValueError(sym)


def substitute(expr, images):
    """
    An NC expression with every letter replaced by its image, expanded; a
    product of coefficients (sign, q exponent, d exponent) adds exponents.
    The terms are neither merged nor sorted (see `scalar_terms`).
    """
    terms = []
    for coeff, word in expr:
        part = [(coeff, ())]
        for y in word:
            part = [((s1 * s2, a1 + a2, b1 + b2), w1 + w2)
                    for (s1, a1, b1), w1 in part for (s2, a2, b2), w2 in images[y]]
        terms += part
    return terms


class CoefficientScalars(dict):
    """The negated scalar -s * q^a d^b of each coefficient (s, a, b), made from the table `qd` on first lookup."""

    def __init__(self, qd):
        self.qd = qd

    def __missing__(self, coeff):
        s, a, b = coeff
        c = self[coeff] = self.qd(a, b) if s == -1 else sc_neg(self.qd(a, b))
        return c


def scalar_terms(terms, scalars, first):
    """
    The expression of `terms` in their order, each coefficient made a scalar
    by the mapping `scalars` and each word led by the letters `first`; words
    merge, at their first place, only where one comes up twice.
    """
    if len(set(map(_WORD, terms))) < len(terms):
        merged = {}  # filled in term order, which the merge keeps
        dvec_add(merged, [(w, scalars[coeff]) for coeff, w in terms])
        return tuple([(c, first + w) for w, c in merged.items()])
    return tuple([(scalars[coeff], first + w) for coeff, w in terms])


def wrap_exponent(kind, j, n):
    """
    Power of d the rotation picks up at the wrap with the decorated affine
    action (e_{n+1} carries d^-1 and f_{n+1} carries d relative to the
    undecorated structure the rotation was stated for).
    """
    if (kind, j) in (("e", n), ("f", n + 1)):
        return 1
    if (kind, j) in (("e", n + 1), ("f", n)):
        return -1
    return 0


def omega_images(n, qd):
    """
    Image of every generator symbol under tau' t'_n ... t'_1, negated: the
    right side of each translation check's residual, as NC expressions in
    acting order whose words begin with the T_OMEGA1 they act after.

    tau' acts last and letter by letter, so the table starts from its letter
    images: each letter rotated, times its power of d.  Level by level,
    i = n down to 1, each letter's image tau' t'_n ... t'_i(x) (e, f, k and
    kinv at every vertex) substitutes the level i + 1 images into t'_i(x).
    Coefficients stay (sign, q exponent, d exponent) until the last pass,
    which makes each distinct one a scalar, with its sign flipped, once.
    The terms keep the order the substitutions make them in.
    """
    cartan = CartanData(n)
    level = {(kind, j): [((1, 0, wrap_exponent(kind, j, n)), ((kind, j % (n + 1) + 1),))]
             for j in range(1, n + 2) for kind in ("e", "f", "k", "kinv")}
    for i in range(n, 0, -1):
        # t'_i fixes the letters at the vertices not joined to i
        level = {x: substitute(tprime_symbol(i, x, cartan), level) if _affine_a(cartan, i, x[1]) else image
                 for x, image in level.items()}
    scalars = CoefficientScalars(qd)
    return {sym: scalar_terms(level[sym], scalars, (T_OMEGA1,)) for sym in gen_symbols(n)}


def gen_symbols(n):
    return [(kind, j) for j in range(1, n + 2) for kind in ("e", "f", "k")]


def intertwining_items(dmod, probes):
    """(3.2.1) for the finite braid operators, (3.2.2) for the rotation, (3.2.3) combined."""
    cartan = CartanData(dmod.n)
    n = dmod.n
    gens = gen_symbols(n)
    # built per call, so every sweep pays for its tables as a command-line run does;
    # each check's whole residual is a table entry, the lhs term leading the negated right side
    minus = CoefficientScalars(dmod.qd)
    exprs = {("braid", i, sym): ((ONE, (sym, ("braid", i))),)
             + scalar_terms(tprime_symbol(i, sym, cartan), minus, (("braid", i),))
             for i in range(1, n + 1) for sym in gens}
    for sym, image in omega_images(n, dmod.qd).items():
        exprs["translation", sym] = ((ONE, (sym, T_OMEGA1)),) + image
        kind, j = sym
        exprs["rotation", sym] = ((ONE, (sym, TAU)),
                                  (minus[1, 0, wrap_exponent(kind, j, n)], (TAU, (kind, j % (n + 1) + 1))))

    def items():
        for pid, vec in probes:
            for sym in gens:
                label = f"{sym[0]}{sym[1]}|{pid}"
                for i in range(1, n + 1):
                    yield (("braid.intertwine", (i, sym[1]), (), label),
                           partial(identity, vec, dmod, exprs["braid", i, sym]))
                yield ("rotation.intertwine", sym[1:], (), label), partial(identity, vec, dmod, exprs["rotation", sym])
                yield (("translation.intertwine", sym[1:], (), label),
                       partial(identity, vec, dmod, exprs["translation", sym]))
    return items()


# -- closed-form regressions ---------------------------------------------------


def _expect_l1_braid(dmod, i, j):
    qpow = dmod.qd(1 if j == i else 0, 0)
    return _si(i, j, dmod.n), sc_neg(qpow) if j == i + 1 else qpow


def regression_items(dmod, K, probes):
    """The printed desk-scale formulas, each against the operator pipeline."""
    n, l, q, qd = dmod.n, dmod.l, dmod.q, dmod.qd

    # the l = 1 slot formulas
    def slot_rhs(hkey, i, j):
        sij, coeff = _expect_l1_braid(dmod, i, j)
        return vec_scale(coeff, dmod.basis_vector(hkey, (sij,)))

    def sign_rhs(hkey, j):
        if j != 1:
            return vec_scale(MINUS_ONE, dmod.basis_vector(hkey, (j,)))
        return dmod.place([(apply_word(dmod.h, lt("Y", 1), {hkey: qd(n, 0)}), (1,), ONE)])

    # translation-operator product formula on every nondecreasing probe term
    def product_rhs(vec):
        raw = []
        for (hkey, jt), c in vec.items():
            s = jt.count(1)
            word = tuple(("Y", p, 1) for p in range(1, s + 1))
            qpow = qd(n * s, 0)
            raw.append((apply_word(dmod.h, word, {hkey: c}), jt, sc_neg(qpow) if (l + s) % 2 else qpow))
        return dmod.place(raw)

    # the independently written closed form for the first-vertex e modes
    def first_mode_rhs(h, vec):
        raw = []
        for (hkey, jt), c in vec.items():
            s = jt.count(1)
            t = s + jt.count(2)
            if t == s:
                continue
            pref = qd(1 - t + s - h * n, -h)
            expr = tuple(
                [(ONE, lt("Y", s + 1, -h))]
                + [
                    (ONE, wmul(tij_word(kk, s + 1), lt("Y", s + 1, -h)))
                    for kk in range(s + 1, t)
                ]
            )
            hv = apply_expr(dmod.h, expr, {hkey: sc_mul(c, pref)})
            j2 = jt[:s] + (1,) + jt[s + 1 :]
            raw.append((hv, j2, ONE))
        return dmod.place(raw)

    # the first Cartan mode display
    def cartan_mode1_rhs(i, vec):
        raw = []
        for (hkey, jt), c in vec.items():
            a = jt.count(i)
            b = jt.count(i + 1)
            base = sc_mul(qd(i - n + a - b, -i), ONE - qd(-2, 0))
            hv = {}
            for p, v in enumerate(jt, 1):
                if v == i:
                    start = qd(-1, 0)
                elif v == i + 1:
                    start = sc_neg(q)
                else:
                    continue
                dvec_add(hv, apply_word(dmod.h, lt("Y", p, -1), {hkey: start}).items())
            raw.append((hv, jt, sc_mul(c, base)))
        return dmod.place(raw)

    # wrap-vertex zero modes in closed form
    def wrap_zero_rhs(kind, vec):
        raw = []
        for (hkey, jt), c in vec.items():
            if kind == "k":
                w = -sum(fund_ktheta_exp(v, n) for v in jt)
                raw.append(({hkey: c}, jt, qd(w, 0)))
                continue
            for p, v in enumerate(jt, 1):
                if kind == "e" and v == 1:
                    wexp = -sum(fund_ktheta_exp(jt[t], n) for t in range(p, l))
                    hv = apply_word(dmod.h, lt("X", p), {hkey: qd(wexp, 0)})
                    j2 = jt[: p - 1] + (n + 1,) + jt[p:]
                elif kind == "f" and v == n + 1:
                    wexp = sum(fund_ktheta_exp(jt[t], n) for t in range(p - 1))
                    hv = apply_word(dmod.h, lt("X", p, -1), {hkey: qd(wexp, 0)})
                    j2 = jt[: p - 1] + (1,) + jt[p:]
                else:
                    continue
                raw.append((hv, j2, c))
        return dmod.place(raw)

    # wrap-vertex action on the standard tuple lands on q^(1-l) m Q (x) w, for l <= n
    def standard_e0_rhs(hkey):
        hv = apply_word(dmod.h, lt("Q"), {hkey: qd(1 - l, 0)})
        w = tuple(range(2, l + 1)) + (n + 1,)
        return dmod.place([(hv, w, ONE)])

    # consequence of the Cartan-current exchange at trivial central charge:
    # e_1 k_{2,1} - q k_{2,1} e_1 = (q - q^-1) d^-1 e_{1,1} k_2
    e10, k21 = ("mode", "e", 1, 0), ("mode", "k+", 2, 1)
    charge = ((ONE, (k21, e10)), (sc_neg(q), (e10, k21)),
              (sc_neg(sc_mul(q - qd(-1, 0), qd(0, -1))), (("mode", "k+", 2, 0), ("mode", "e", 1, 1))))

    def items():
        for hkey in _module_probe_keys(dmod) if l == 1 else ():
            for j in range(1, n + 2):
                # both act on the unstraightened slot vector, straightened first
                slot = {(hkey, (j,)): ONE}
                for i in range(1, n + 1):
                    braid_slot = (ONE, (STRAIGHTEN, ("braid", i))), (MINUS_ONE, partial(slot_rhs, hkey, i, j))
                    yield ("reg.braid-slot", (i, j), (), "basis"), partial(identity, slot, dmod, braid_slot)
                sign = (ONE, (STRAIGHTEN, T_OMEGA1)), (MINUS_ONE, partial(sign_rhs, hkey, j))
                yield ("reg.translation-sign", (j,), (), "basis"), partial(identity, slot, dmod, sign)
        for pid, vec in probes:
            product = (ONE, (T_OMEGA1,)), (MINUS_ONE, partial(product_rhs, vec))
            yield ("reg.translation-product", (), (), pid), partial(identity, vec, dmod, product)
            for h in range(-K, K + 1):
                first_mode = (ONE, (("mode", "e", 1, h),)), (MINUS_ONE, partial(first_mode_rhs, h, vec))
                yield ("reg.first-vertex-mode", (1,), (h,), pid), partial(identity, vec, dmod, first_mode)
            for i in range(1, n + 1):
                weight = (ONE, (("k", i),)), (MINUS_ONE, partial(weight_display, dmod, i, vec))
                yield ("reg.cartan-weight", (i,), (0,), pid), partial(identity, vec, dmod, weight)
                mode1 = (ONE, (("mode", "k+", i, 1),)), (MINUS_ONE, partial(cartan_mode1_rhs, i, vec))
                yield ("reg.cartan-mode1", (i,), (1,), pid), partial(identity, vec, dmod, mode1)
            yield ("reg.charge-one", (1, 2), (0, 1), pid), partial(identity, vec, dmod, charge)
            for kind, mode in (("e", "e"), ("f", "f"), ("k", "k+")):
                wrap = (ONE, (("mode", mode, 0, 0),)), (MINUS_ONE, partial(wrap_zero_rhs, kind, vec))
                yield (f"reg.wrap-{kind}0", (0,), (0,), pid), partial(identity, vec, dmod, wrap)
        for hkey in _module_probe_keys(dmod) if l <= n else ():
            standard = {(hkey, tuple(range(1, l + 1))): ONE}
            e0 = (ONE, (STRAIGHTEN, ("mode", "e", 0, 0))), (MINUS_ONE, partial(standard_e0_rhs, hkey))
            yield ("reg.standard-e0", (0,), (0,), f"m{hkey}"), partial(identity, standard, dmod, e0)
    return items()


def _module_probe_keys(dmod):
    if dmod.h.family == "l1":
        return [()]
    l = dmod.l
    return [(0,) * l, (1,) + (0,) * (l - 1), (0,) * (l - 1) + (-1,)]


# -- reconstruction (the inverse-functor displays) -----------------------------


def reconstruction_items(dmod, K, hprobes):
    """
    (4.2.1) on the module side plus the two displays from its proof.  The
    theta conjugation takes theta_1 at infinity (sgn +1, Y^-r) and at zero
    (sgn -1, Y^r), which is theta_-1 at infinity (`series`).
    """
    n, l, qd = dmod.n, dmod.l, dmod.qd
    qw, qinv = lt("Q"), lt("Q", 0, -1)
    w_first = tuple(range(2, l + 1)) + (n + 1,)
    w_second = tuple(range(3, l + 2)) + (n + 1,)

    def placed(word, c, hvec, slots):
        """The straightened vector c * (word applied to hvec) (x) slots."""
        return dmod.place([(apply_word(dmod.h, word, hvec), slots, c)])

    # (sgn, r), the Y exponent and the theta coefficient scaled by (q^n d^2)^e of each theta conjugation
    theta_cases = []
    for sgn in (+1, -1):
        coeffs = theta_expand(sgn, K, dmod.q)
        for r in range(K + 1):
            e = -r if sgn > 0 else r
            theta_cases.append(((sgn, r), e, sc_mul(coeffs[r], qd(n * e, 2 * e))))

    # the Y-shift and Y-wrap are Hecke words, checked as the Hecke suites are
    shifts = [RelCheck("recon.y-wrap", (), ((ONE, wmul(qw, lt("Y", l), qinv)), (-dmod.params.x, lt("Y", 1))))]
    if l >= 2:
        shifts.append(RelCheck("recon.y-shift", (), ((ONE, wmul(qw, lt("Y", 1), qinv)), (MINUS_ONE, lt("Y", 2)))))

    def items():
        for pid, hvec in hprobes:
            if l >= 2:
                for modes, e, c in theta_cases:
                    conj = ((ONE, partial(placed, wmul(lt("Y", 2, e), qw), c, hvec, w_first)),
                            (MINUS_ONE, partial(placed, wmul(qw, lt("Y", 1, e)), c, hvec, w_first)))
                    yield ("recon.theta-conj", (2, 1), modes, pid), partial(identity, hvec, dmod.h, conj)
            if n > l + 1:
                display = ((ONE, partial(placed, wmul(qw, lt("Y", l)), qd(0, n + 1), hvec, w_second)),
                           (MINUS_ONE, partial(placed, wmul(lt("Y", 1), qw), qd(n + 1, 0), hvec, w_second)))
                yield ("recon.wrap-display", (0, n), (), pid), partial(identity, hvec, dmod.h, display)
    return chain(make_hecke_items(dmod.h, shifts, hprobes), items())


def psi_inverse_items(dmod, probes):
    """psi o psi_inv and psi_inv o psi are the identity."""
    inverse = ((ONE, (PSI, PSI_INV)), MINUS_UNIT), ((ONE, (PSI_INV, PSI)), MINUS_UNIT)
    return ((("psi.inverse", (), (), pid), partial(identity, vec, dmod, *inverse)) for pid, vec in probes)
