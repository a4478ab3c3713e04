"""
Closed-form regressions and conjugation/intertwining suites for the duality
module: everything that pins the operator implementation against an
independently written formula rather than against an algebra relation.

Every check is stated as data for `reports.identity` (see there for the
letters).  The intertwining checks need images of Kac-Moody generators
under the braid-group automorphisms.  Those images are composed
symbolically as noncommutative polynomials in the generator symbols (the
diagram has no edges of weight below -1, so no divided powers survive in
the tables), which are words over the same alphabet.  The translation
images are built into suffix tries once per sweep and shared by every
probe, so words that end in the same letters share their operator calls.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .duality import dvec_add, fund_ktheta_exp
from .hecke import RelCheck, apply_expr, apply_word, lt, make_hecke_items, tij_word, vec_scale, wmul
from .qtoroidal import CartanData, weight_display
from .reports import MINUS_ONE, ONE, UNIT, eval_trie, identity, nc_trie
from .scalars import sc_inv, sc_mul, sc_pow

PSI, PSI_INV, TAU, T_OMEGA1, STRAIGHTEN = ("psi",), ("psi_inv",), ("tau",), ("t_omega1",), ("straighten",)
KINDS = ("e", "f", "k+", "k-")


def _mode_range(kind, K):
    if kind == "e" or kind == "f":
        return range(-K, K + 1)
    if kind == "k+":
        return range(0, K + 1)
    return range(-K, 1)


# -- psi conjugation (diagram rotation on currents) ---------------------------


def psi_conjugation_items(dmod, K, probes):
    """Modewise psi^-1 g_{i,k} psi = (q^-1 d)^-k g_{i-1,k}, plus the double twist."""
    n = dmod.n
    scale1 = sc_mul(sc_inv(dmod.q), dmod.d)

    @partial(identity, ops=dmod)
    def shift(vec, i, kind, k):
        lhs = ((ONE, (PSI_INV, ("mode", kind, i, k), PSI)),)
        return (lhs, ((sc_pow(scale1, -k), (("mode", kind, (i - 1) % (n + 1), k),)),)),

    @partial(identity, ops=dmod)
    def double(vec, kind, k):
        lhs = ((ONE, (PSI_INV, PSI_INV, ("mode", kind, 1, k), PSI, PSI)),)
        return (lhs, ((sc_pow(scale1, -2 * k), (("mode", kind, n, k),)),)),

    items = []
    for pid, vec in probes:
        for i in range(n + 1):
            for kind in KINDS:
                for k in _mode_range(kind, K):
                    items.append(((f"psi.shift-{kind}", (i,), (k,), pid), partial(shift, vec, i, kind, k)))
        for kind in KINDS:
            for k in _mode_range(kind, K):
                items.append(((f"psi.double-{kind}", (1, n), (k,), pid), partial(double, vec, kind, k)))
    return items


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


def tprime_symbol(i, sym, cartan, q):
    """Image of one generator symbol under the vertex-i automorphism; an NC expression."""
    kind, j = sym
    a = _affine_a(cartan, i, j)
    if kind in ("k", "kinv"):
        # Cartan generators move by the weight-lattice reflection:
        # k_j |-> k_j k_i^{-a_ij} (the printed index swap is its epsilon-basis shorthand)
        inv = {"k": "kinv", "kinv": "k"}
        if a == 2:
            return ((Fraction(1), ((inv[kind], i),)),)
        if a == 0:
            return ((Fraction(1), (sym,)),)
        return ((Fraction(1), (sym, (kind, i))),)
    if kind == "e":
        if j == i:
            return ((Fraction(-1), (("f", i), ("k", i))),)
        if a == 0:
            return ((Fraction(1), (sym,)),)
        return (
            (Fraction(-1), (("e", i), ("e", j))),
            (sc_inv(q), (("e", j), ("e", i))),
        )
    if kind == "f":
        if j == i:
            return ((Fraction(-1), (("kinv", i), ("e", i))),)
        if a == 0:
            return ((Fraction(1), (sym,)),)
        return (
            (Fraction(-1), (("f", j), ("f", i))),
            (q, (("f", i), ("f", j))),
        )
    raise ValueError(sym)


def tprime_expr(i, expr, cartan, q):
    """Extend the vertex-i automorphism multiplicatively over an NC expression."""
    images = {}
    merged = {}
    for coeff, word in expr:
        terms = [((), coeff)]
        for sym in word:
            image = images.get(sym)
            if image is None:
                image = images[sym] = tprime_symbol(i, sym, cartan, q)
            # most coefficients are 1: those products are skipped
            terms = [(w1 + w2, c1 if c2 == 1 else c2 if c1 == 1 else sc_mul(c1, c2))
                     for w1, c1 in terms for c2, w2 in image]
        dvec_add(merged, terms)
    return tuple((c, w) for w, c in sorted(merged.items()))


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


def tauprime_expr(expr, n, d):
    """The rotation on an NC expression: each word is scaled once by d to its net wrap exponent."""
    weight = {(kind, j): wrap_exponent(kind, j, n) for kind in ("e", "f") for j in (n, n + 1)}
    rot = {j: j % (n + 1) + 1 for j in range(1, n + 2)}
    out = []
    for c, w in expr:
        e = sum(weight.get(sym, 0) for sym in w)
        if e:
            c = sc_mul(c, sc_pow(d, e))
        out.append((c, tuple((kind, rot[j]) for kind, j in w)))
    return tuple(out)


def omega_images(n, q, d):
    """Image of every generator symbol under tau' t'_n ... t'_1, as NC expressions."""
    cartan = CartanData(n)
    images = {}
    for sym in gen_symbols(n):
        expr = ((Fraction(1), (sym,)),)
        for i in range(1, n + 1):
            expr = tprime_expr(i, expr, cartan, q)
        images[sym] = tauprime_expr(expr, n, d)
    return images


def gen_symbols(n):
    return [(kind, j) for j in range(1, n + 2) for kind in ("e", "f", "k")]


def intertwining_items(dmod, probes):
    """(3.2.1) for the finite braid operators, (3.2.2) for the rotation, (3.2.3) combined."""
    cartan = CartanData(dmod.n)
    n, q = dmod.n, dmod.q
    gens = gen_symbols(n)
    # built per call, so every sweep pays for its tables as a command-line run does;
    # each table is the image's trie below the t_omega1 it acts after
    omega_tries = {sym: ({T_OMEGA1: nc_trie(expr)}, []) for sym, expr in omega_images(n, q, dmod.d).items()}

    @partial(identity, ops=dmod)
    def braid(vec, i, sym):
        b = ("braid", i)
        return (((ONE, (b, sym)),), tuple((c, w + (b,)) for c, w in tprime_symbol(i, sym, cartan, q))),

    @partial(identity, ops=dmod)
    def rotation(vec, sym):
        kind, j = sym
        rhs = ((sc_pow(dmod.d, wrap_exponent(kind, j, n)), ((kind, j % (n + 1) + 1), TAU)),)
        return (((ONE, (TAU, sym)),), rhs),

    @partial(identity, ops=dmod)
    def translation(vec, sym):
        return (((ONE, (T_OMEGA1, sym)),), partial(eval_trie, dmod, omega_tries[sym], vec)),

    items = []
    for pid, vec in probes:
        for sym in gens:
            label = f"{sym[0]}{sym[1]}|{pid}"
            for i in range(1, n + 1):
                items.append((("braid.intertwine", (i,) + sym[1:], (), label), partial(braid, vec, i, sym)))
            items.append((("rotation.intertwine", sym[1:], (), label), partial(rotation, vec, sym)))
            items.append((("translation.intertwine", sym[1:], (), label), partial(translation, vec, sym)))
    return items


# -- closed-form regressions ---------------------------------------------------


def _expect_l1_braid(dmod, i, j):
    sij = _si(i, j, dmod.n)
    sign = Fraction(-1) if j == i + 1 else Fraction(1)
    qpow = dmod.q if j == i else Fraction(1)
    return sij, sc_mul(sign, qpow)


def regression_items(dmod, K, probes):
    """The printed desk-scale formulas, each against the operator pipeline."""
    n, l, q, d = dmod.n, dmod.l, dmod.q, dmod.d
    items = []

    if l == 1:
        def slot_rhs(hkey, i, j, b):
            sij, coeff = _expect_l1_braid(dmod, i, j)
            return vec_scale(coeff, dmod.basis_vector(hkey, (sij,), b))

        def sign_rhs(hkey, j, b):
            if j != 1:
                return vec_scale(Fraction(-1), dmod.basis_vector(hkey, (j,), b))
            hv = apply_word(dmod.h, lt("Y", 1), {hkey: sc_pow(q, n)}, b)
            return dmod.straighten({(hk, (1,)): c for hk, c in hv.items()}, b)

        # both act on the unstraightened slot vector, straightened first
        @partial(identity, ops=dmod)
        def braid_slot(vec, hkey, i, j):
            return (((ONE, (("braid", i), STRAIGHTEN)),), partial(slot_rhs, hkey, i, j)),

        @partial(identity, ops=dmod)
        def translation_sign(vec, hkey, j):
            return (((ONE, (T_OMEGA1, STRAIGHTEN)),), partial(sign_rhs, hkey, j)),

        for hkey in dmod.h.basis_keys():
            for j in range(1, n + 2):
                slot = {(hkey, (j,)): ONE}
                for i in range(1, n + 1):
                    items.append((("reg.braid-slot", (i, j), (), "basis"), partial(braid_slot, slot, hkey, i, j)))
                items.append((("reg.translation-sign", (j,), (), "basis"), partial(translation_sign, slot, hkey, j)))

    # translation-operator product formula on every nondecreasing probe term
    def product_rhs(vec, b):
        want = {}
        for (hkey, jt), c in vec.items():
            s = sum(1 for v in jt if v == 1)
            word = tuple(("Y", p, 1) for p in range(1, s + 1))
            hv = apply_word(dmod.h, word, {hkey: c}, b)
            sign = Fraction(-1) if (l + s) % 2 else Fraction(1)
            dvec_add(want, [((hk, jt), cc) for hk, cc in hv.items()], sc_mul(sign, sc_pow(q, n * s)))
        return dmod.straighten(want, b)

    # the independently written closed form for the first-vertex e modes
    def first_mode_rhs(h, vec, b):
        want = {}
        for (hkey, jt), c in vec.items():
            s = sum(1 for v in jt if v == 1)
            t = s + sum(1 for v in jt if v == 2)
            if t == s:
                continue
            pref = sc_mul(sc_pow(d, -h), sc_pow(q, 1 - t + s - h * n))
            expr = tuple(
                [(Fraction(1), lt("Y", s + 1, -h))]
                + [
                    (Fraction(1), wmul(tij_word(kk, s + 1), lt("Y", s + 1, -h)))
                    for kk in range(s + 1, t)
                ]
            )
            hv = apply_expr(dmod.h, expr, {hkey: sc_mul(c, pref)}, b)
            j2 = jt[:s] + (1,) + jt[s + 1 :]
            dvec_add(want, [((hk, j2), cc) for hk, cc in hv.items()])
        return dmod.straighten(want, b)

    # the first Cartan mode display
    def cartan_mode1_rhs(i, vec, budget):
        want = {}
        for (hkey, jt), c in vec.items():
            a = sum(1 for v in jt if v == i)
            b = sum(1 for v in jt if v == i + 1)
            base = sc_mul(
                sc_pow(q, i - n + a - b),
                sc_mul(Fraction(1) - sc_pow(q, -2), sc_pow(d, -i)),
            )
            hv = {}
            for p, v in enumerate(jt, 1):
                if v == i:
                    start = sc_inv(q)
                elif v == i + 1:
                    start = sc_mul(Fraction(-1), q)
                else:
                    continue
                dvec_add(hv, apply_word(dmod.h, lt("Y", p, -1), {hkey: start}, budget).items())
            dvec_add(want, [((hk, jt), cc) for hk, cc in hv.items()], sc_mul(c, base))
        return dmod.straighten(want, budget)

    # wrap-vertex zero modes in closed form
    def wrap_zero_rhs(kind, vec, b):
        want = {}
        for (hkey, jt), c in vec.items():
            if kind == "k":
                w = -sum(fund_ktheta_exp(v, n) for v in jt)
                dvec_add(want, [((hkey, jt), sc_mul(c, sc_pow(q, w)))])
                continue
            for p, v in enumerate(jt, 1):
                if kind == "e" and v == 1:
                    wexp = -sum(fund_ktheta_exp(jt[t], n) for t in range(p, l))
                    hv = apply_word(dmod.h, lt("X", p), {hkey: sc_pow(q, wexp)}, b)
                    j2 = jt[: p - 1] + (n + 1,) + jt[p:]
                elif kind == "f" and v == n + 1:
                    wexp = sum(fund_ktheta_exp(jt[t], n) for t in range(p - 1))
                    hv = apply_word(dmod.h, lt("X", p, -1), {hkey: sc_pow(q, wexp)}, b)
                    j2 = jt[: p - 1] + (1,) + jt[p:]
                else:
                    continue
                dvec_add(want, [((hk, j2), cc) for hk, cc in hv.items()], c)
        return dmod.straighten(want, b)

    @partial(identity, ops=dmod)
    def translation_product(vec):
        return (((ONE, (T_OMEGA1,)),), partial(product_rhs, vec)),

    @partial(identity, ops=dmod)
    def first_mode(vec, h):
        return (((ONE, (("mode", "e", 1, h),)),), partial(first_mode_rhs, h, vec)),

    @partial(identity, ops=dmod)
    def cartan_weight(vec, i):
        return (((ONE, (("k", i),)),), partial(weight_display, dmod, i, vec)),

    @partial(identity, ops=dmod)
    def cartan_mode1(vec, i):
        return (((ONE, (("mode", "k+", i, 1),)),), partial(cartan_mode1_rhs, i, vec)),

    # consequence of the Cartan-current exchange at trivial central charge:
    # e_1 k_{2,1} - q k_{2,1} e_1 = (q - q^-1) d^-1 e_{1,1} k_2
    charge_coeff = sc_mul(q - sc_inv(q), sc_inv(d))
    minus_q = sc_mul(MINUS_ONE, q)

    @partial(identity, ops=dmod)
    def charge_one(vec):
        e10, k21 = ("mode", "e", 1, 0), ("mode", "k+", 2, 1)
        lhs = ((ONE, (e10, k21)), (minus_q, (k21, e10)))
        return (lhs, ((charge_coeff, (("mode", "e", 1, 1), ("mode", "k+", 2, 0))),)),

    @partial(identity, ops=dmod)
    def wrap_zero(vec, kind):
        lhs = ((ONE, (("mode", {"e": "e", "f": "f", "k": "k+"}[kind], 0, 0),)),)
        return (lhs, partial(wrap_zero_rhs, kind, vec)),

    for pid, vec in probes:
        items.append((("reg.translation-product", (), (), pid), partial(translation_product, vec)))
        for h in range(-K, K + 1):
            items.append((("reg.first-vertex-mode", (1,), (h,), pid), partial(first_mode, vec, h)))
        for i in range(1, n + 1):
            items.append((("reg.cartan-weight", (i,), (0,), pid), partial(cartan_weight, vec, i)))
            items.append((("reg.cartan-mode1", (i,), (1,), pid), partial(cartan_mode1, vec, i)))
        items.append((("reg.charge-one", (1, 2), (0, 1), pid), partial(charge_one, vec)))
        for kind in ("e", "f", "k"):
            items.append(((f"reg.wrap-{kind}0", (0,), (0,), pid), partial(wrap_zero, vec, kind)))

    # wrap-vertex action on the standard tuple lands on q^(1-l) m Q (x) w
    if l <= n:
        def standard_e0_rhs(hkey, b):
            hv = apply_word(dmod.h, lt("Q"), {hkey: sc_pow(q, 1 - l)}, b)
            w = tuple(range(2, l + 1)) + (n + 1,)
            return dmod.straighten({(hk, w): c for hk, c in hv.items()}, b)

        @partial(identity, ops=dmod)
        def standard_e0(vec, hkey):
            return (((ONE, (("mode", "e", 0, 0), STRAIGHTEN)),), partial(standard_e0_rhs, hkey)),

        for hkey in _module_probe_keys(dmod):
            standard = {(hkey, tuple(range(1, l + 1))): ONE}
            items.append((("reg.standard-e0", (0,), (0,), f"m{hkey}"), partial(standard_e0, standard, hkey)))
    return items


def _module_probe_keys(dmod):
    if dmod.h.family == "l1":
        return [()]
    l = dmod.l
    return [(0,) * l, (1,) + (0,) * (l - 1), (0,) * (l - 1) + (-1,)]


# -- reconstruction (the inverse-functor displays) -----------------------------


def reconstruction_items(dmod, K, hprobes):
    """(4.2.1) on the module side plus the two displays from its proof."""
    from .series import AT_INFINITY, AT_ZERO, theta_expand

    n, l, q, d = dmod.n, dmod.l, dmod.q, dmod.d
    qw, qinv = lt("Q"), lt("Q", 0, -1)
    w_first = tuple(range(2, l + 1)) + (n + 1,)
    w_second = tuple(range(3, l + 2)) + (n + 1,)

    def placed(word, c, hvec, slots, b):
        """The straightened vector (word applied to c * hvec) (x) slots."""
        hv = apply_word(dmod.h, word, vec_scale(c, hvec), b)
        return dmod.straighten({(hk, slots): cc for hk, cc in hv.items()}, b)

    @identity
    def theta_conj(hvec, e, c):
        return (partial(placed, wmul(lt("Y", 2, e), qw), c, hvec, w_first),
                partial(placed, wmul(qw, lt("Y", 1, e)), c, hvec, w_first)),

    @identity
    def wrap_display(hvec):
        return (partial(placed, wmul(qw, lt("Y", l)), sc_pow(d, n + 1), hvec, w_second),
                partial(placed, wmul(lt("Y", 1), qw), sc_pow(q, n + 1), hvec, w_second)),

    # (sgn, r), the Y exponent and the scaled theta coefficient of each theta conjugation
    theta_cases = []
    scale = sc_mul(sc_pow(q, n), sc_mul(d, d))
    for direction, sgn in ((AT_INFINITY, +1), (AT_ZERO, -1)):
        coeffs = theta_expand(1, direction, K, q).coeffs
        for r in range(K + 1):
            e = -r if sgn > 0 else r
            theta_cases.append(((sgn, r), e, sc_mul(coeffs[r], sc_pow(scale, e))))

    # the Y-shift and Y-wrap are Hecke words, checked as the Hecke suites are
    shifts = [RelCheck("recon.y-wrap", (), ((ONE, wmul(qw, lt("Y", l), qinv)),), ((dmod.params.x, lt("Y", 1)),))]
    if l >= 2:
        shifts.append(RelCheck("recon.y-shift", (), ((ONE, wmul(qw, lt("Y", 1), qinv)),), ((ONE, lt("Y", 2)),)))
    items = make_hecke_items(dmod.h, shifts, hprobes)
    for pid, hvec in hprobes:
        if l >= 2:
            for modes, e, c in theta_cases:
                items.append((("recon.theta-conj", (2, 1), modes, pid), partial(theta_conj, hvec, e, c)))
        if n > l + 1:
            items.append((("recon.wrap-display", (0, n), (), pid), partial(wrap_display, hvec)))
    return items


def psi_inverse_items(dmod, probes):
    """psi o psi_inv and psi_inv o psi are the identity."""

    @partial(identity, ops=dmod)
    def inverse(vec):
        return (((ONE, (PSI_INV, PSI)),), UNIT), (((ONE, (PSI, PSI_INV)),), UNIT)

    return [(("psi.inverse", (), (), pid), partial(inverse, vec)) for pid, vec in probes]
