"""
Closed-form regressions and conjugation/intertwining suites for the duality
module: everything that pins the operator implementation against an
independently written formula rather than against an algebra relation.

The intertwining checks need images of Kac-Moody generators under the
braid-group automorphisms.  Those images are composed symbolically as
noncommutative polynomials in the generator symbols (the diagram has no
edges of weight below -1, so no divided powers survive in the tables) and
then evaluated on probes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .duality import dvec_add, fund_ktheta_exp
from .hecke import WindowBudget, apply_expr, apply_word, lt, tij_word, vec_scale, vec_sub, wmul
from .qtoroidal import CartanData, weight_display
from .reports import identity
from .scalars import sc_inv, sc_mul, sc_pow

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
    shift = identity(
        lambda b, i, kind, k, vec: dmod.psi_inv(dmod.mode(kind, i, k, dmod.psi(dict(vec), b), b), b),
        lambda b, i, kind, k, vec: vec_scale(
            sc_pow(scale1, -k), dmod.mode(kind, (i - 1) % (n + 1), k, dict(vec), b)
        ),
    )

    def double_lhs(b, kind, k, vec):
        v = dmod.psi(dmod.psi(dict(vec), b), b)
        v = dmod.mode(kind, 1, k, v, b)
        return dmod.psi_inv(dmod.psi_inv(v, b), b)

    double = identity(
        double_lhs,
        lambda b, kind, k, vec: vec_scale(sc_pow(scale1, -2 * k), dmod.mode(kind, n, k, dict(vec), b)),
    )
    items = []
    for pid, vec in probes:
        for i in range(n + 1):
            for kind in KINDS:
                for k in _mode_range(kind, K):
                    items.append(((f"psi.shift-{kind}", (i,), (k,), pid), partial(shift, i, kind, k, vec)))
        for kind in KINDS:
            for k in _mode_range(kind, K):
                items.append(((f"psi.double-{kind}", (1, n), (k,), pid), partial(double, kind, k, vec)))
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
    merged = {}
    for coeff, word in expr:
        terms = [((), coeff)]
        for sym in word:
            image = tprime_symbol(i, sym, cartan, q)
            terms = [(w1 + w2, sc_mul(c1, c2)) for w1, c1 in terms for c2, w2 in image]
        dvec_add(merged, terms)
    return tuple((c, w) for w, c in sorted(merged.items()))


def tauprime_symbol_scale(kind, j, n, d):
    """
    d-factor the rotation picks up at the wrap with the decorated affine
    action (e_{n+1} carries d^-1 and f_{n+1} carries d relative to the
    undecorated structure the rotation was stated for).
    """
    if kind == "e":
        if j == n:
            return d
        if j == n + 1:
            return sc_inv(d)
    if kind == "f":
        if j == n:
            return sc_inv(d)
        if j == n + 1:
            return d
    return Fraction(1)


def tauprime_expr(expr, n, d):
    rot = lambda j: j % (n + 1) + 1
    out = []
    for c, w in expr:
        for kind, j in w:
            c = sc_mul(c, tauprime_symbol_scale(kind, j, n, d))
        out.append((c, tuple((kind, rot(j)) for kind, j in w)))
    return tuple(out)


def eval_nc(dmod, expr, vec, budget):
    """Evaluate an NC expression (written left to right) on a vector: rightmost first."""
    out = {}
    for c, word in expr:
        v = dict(vec)
        for kind, j in reversed(word):
            v = dmod.km(kind, j, v, budget)
            if not v:
                break
        dvec_add(out, v.items(), c)
    return out


def gen_symbols(n):
    return [(kind, j) for j in range(1, n + 2) for kind in ("e", "f", "k")]


def intertwining_items(dmod, probes):
    """(3.2.1) for the finite braid operators, (3.2.2) for the rotation, (3.2.3) combined."""
    cartan = CartanData(dmod.n)
    n, q = dmod.n, dmod.q
    gens = gen_symbols(n)
    omega_images = {}
    for sym in gens:
        expr = ((Fraction(1), (sym,)),)
        for i in range(1, n + 1):
            expr = tprime_expr(i, expr, cartan, q)
        omega_images[sym] = tauprime_expr(expr, n, dmod.d)
    braid = identity(
        lambda b, i, sym, vec: dmod.braid(i, dmod.km(*sym, dict(vec), b), b),
        lambda b, i, sym, vec: eval_nc(dmod, tprime_symbol(i, sym, cartan, q), dmod.braid(i, dict(vec), b), b),
    )
    rotation = identity(
        lambda b, sym, vec: dmod.tau(dmod.km(*sym, dict(vec), b), b),
        lambda b, sym, vec: vec_scale(
            tauprime_symbol_scale(*sym, n, dmod.d),
            dmod.km(sym[0], sym[1] % (n + 1) + 1, dmod.tau(dict(vec), b), b),
        ),
    )
    translation = identity(
        lambda b, sym, vec: dmod.t_omega1(dmod.km(*sym, dict(vec), b), b),
        lambda b, sym, vec: eval_nc(dmod, omega_images[sym], dmod.t_omega1(dict(vec), b), b),
    )
    items = []
    for pid, vec in probes:
        for i in range(1, n + 1):
            for sym in gens:
                items.append((("braid.intertwine", (i,) + sym[1:], (), f"{sym[0]}{sym[1]}|{pid}"),
                              partial(braid, i, sym, vec)))
        for sym in gens:
            items.append((("rotation.intertwine", sym[1:], (), f"{sym[0]}{sym[1]}|{pid}"),
                          partial(rotation, sym, vec)))
        for sym in gens:
            items.append((("translation.intertwine", sym[1:], (), f"{sym[0]}{sym[1]}|{pid}"),
                          partial(translation, sym, vec)))
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
        def slot_rhs(b, hkey, i, j):
            sij, coeff = _expect_l1_braid(dmod, i, j)
            return vec_scale(coeff, dmod.basis_vector(hkey, (sij,), b))

        def sign_rhs(b, hkey, j):
            if j != 1:
                return vec_scale(Fraction(-1), dmod.basis_vector(hkey, (j,), b))
            hv = apply_word(dmod.h, lt("Y", 1), {hkey: sc_pow(q, n)}, b)
            return dmod.straighten({(hk, (1,)): c for hk, c in hv.items()}, b)

        braid_slot = identity(lambda b, hkey, i, j: dmod.braid(i, dmod.basis_vector(hkey, (j,), b), b),
                              slot_rhs)
        translation_sign = identity(lambda b, hkey, j: dmod.t_omega1(dmod.basis_vector(hkey, (j,), b), b),
                                    sign_rhs)
        for hkey in dmod.h.basis_keys():
            for j in range(1, n + 2):
                for i in range(1, n + 1):
                    items.append((("reg.braid-slot", (i, j), (), "basis"), partial(braid_slot, hkey, i, j)))
                items.append((("reg.translation-sign", (j,), (), "basis"), partial(translation_sign, hkey, j)))

    # translation-operator product formula on every nondecreasing probe term
    def product_rhs(b, vec):
        want = {}
        for (hkey, jt), c in vec.items():
            s = sum(1 for v in jt if v == 1)
            word = tuple(("Y", p, 1) for p in range(1, s + 1))
            hv = apply_word(dmod.h, word, {hkey: c}, b)
            sign = Fraction(-1) if (l + s) % 2 else Fraction(1)
            dvec_add(want, [((hk, jt), cc) for hk, cc in hv.items()], sc_mul(sign, sc_pow(q, n * s)))
        return dmod.straighten(want, b)

    # the independently written closed form for the first-vertex e modes
    def first_mode_rhs(b, h, vec):
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
    def cartan_mode1_rhs(budget, i, vec):
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

    # consequence of the Cartan-current exchange at trivial central charge:
    # e_1 k_{2,1} - q k_{2,1} e_1 = (q - q^-1) d^-1 e_{1,1} k_2
    def charge_lhs(b, vec):
        lhs = dmod.mode("e", 1, 0, dmod.mode("k+", 2, 1, dict(vec), b), b)
        dvec_add(lhs, dmod.mode("k+", 2, 1, dmod.mode("e", 1, 0, dict(vec), b), b).items(),
                 sc_mul(Fraction(-1), q))
        return lhs

    charge_coeff = sc_mul(q - sc_inv(q), sc_inv(d))

    # wrap-vertex zero modes in closed form
    def wrap_zero_rhs(b, kind, vec):
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

    translation_product = identity(lambda b, vec: dmod.t_omega1(dict(vec), b), product_rhs)
    first_mode = identity(lambda b, h, vec: dmod.mode("e", 1, h, dict(vec), b), first_mode_rhs)
    cartan_weight = identity(lambda b, i, vec: dmod.km("k", i, dict(vec), b),
                             lambda b, i, vec: weight_display(dmod, i, vec))
    cartan_mode1 = identity(lambda b, i, vec: dmod.mode("k+", i, 1, dict(vec), b), cartan_mode1_rhs)
    charge_one = identity(charge_lhs, lambda b, vec: vec_scale(
        charge_coeff, dmod.mode("e", 1, 1, dmod.mode("k+", 2, 0, dict(vec), b), b)))
    wrap_zero = identity(
        lambda b, kind, vec: dmod.mode({"e": "e", "f": "f", "k": "k+"}[kind], 0, 0, dict(vec), b),
        wrap_zero_rhs,
    )
    for pid, vec in probes:
        items.append((("reg.translation-product", (), (), pid), partial(translation_product, vec)))
        for h in range(-K, K + 1):
            items.append((("reg.first-vertex-mode", (1,), (h,), pid), partial(first_mode, h, vec)))
        for i in range(1, n + 1):
            items.append((("reg.cartan-weight", (i,), (0,), pid), partial(cartan_weight, i, vec)))
            items.append((("reg.cartan-mode1", (i,), (1,), pid), partial(cartan_mode1, i, vec)))
        items.append((("reg.charge-one", (1, 2), (0, 1), pid), partial(charge_one, vec)))
        for kind in ("e", "f", "k"):
            items.append(((f"reg.wrap-{kind}0", (0,), (0,), pid), partial(wrap_zero, kind, vec)))

    # wrap-vertex action on the standard tuple lands on q^(1-l) m Q (x) w
    if l <= n:
        def standard_e0_rhs(b, hkey):
            hv = apply_word(dmod.h, lt("Q"), {hkey: sc_pow(q, 1 - l)}, b)
            w = tuple(range(2, l + 1)) + (n + 1,)
            return dmod.straighten({(hk, w): c for hk, c in hv.items()}, b)

        standard_e0 = identity(
            lambda b, hkey: dmod.mode("e", 0, 0, dmod.basis_vector(hkey, tuple(range(1, l + 1)), b), b),
            standard_e0_rhs,
        )
        for hkey in _module_probe_keys(dmod):
            items.append((("reg.standard-e0", (0,), (0,), f"m{hkey}"), partial(standard_e0, hkey)))
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

    def placed(b, word, c, hvec, slots):
        """The straightened vector (word applied to c * hvec) (x) slots."""
        hv = apply_word(dmod.h, word, vec_scale(c, hvec), b)
        return dmod.straighten({(hk, slots): cc for hk, cc in hv.items()}, b)

    y_shift = identity(
        lambda b, hvec: apply_word(dmod.h, wmul(qw, lt("Y", 1), qinv), dict(hvec), b),
        lambda b, hvec: apply_word(dmod.h, lt("Y", 2), dict(hvec), b),
    )
    y_wrap = identity(
        lambda b, hvec: apply_word(dmod.h, wmul(qw, lt("Y", l), qinv), dict(hvec), b),
        lambda b, hvec: vec_scale(dmod.params.x, apply_word(dmod.h, lt("Y", 1), dict(hvec), b)),
    )
    theta_conj = identity(
        lambda b, e, c, hvec: placed(b, wmul(lt("Y", 2, e), qw), c, hvec, w_first),
        lambda b, e, c, hvec: placed(b, wmul(qw, lt("Y", 1, e)), c, hvec, w_first),
    )
    wrap_display = identity(
        lambda b, hvec: placed(b, wmul(qw, lt("Y", l)), sc_pow(d, n + 1), hvec, w_second),
        lambda b, hvec: placed(b, wmul(lt("Y", 1), qw), sc_pow(q, n + 1), hvec, w_second),
    )
    # (sgn, r), the Y exponent and the scaled theta coefficient of each theta conjugation
    theta_cases = []
    scale = sc_mul(sc_pow(q, n), sc_mul(d, d))
    for direction, sgn in ((AT_INFINITY, +1), (AT_ZERO, -1)):
        coeffs = theta_expand(1, direction, K, q).coeffs
        for r in range(K + 1):
            e = -r if sgn > 0 else r
            theta_cases.append(((sgn, r), e, sc_mul(coeffs[r], sc_pow(scale, e))))

    items = []
    for pid, hvec in hprobes:
        if l >= 2:
            items.append((("recon.y-shift", (), (), pid), partial(y_shift, hvec)))
        items.append((("recon.y-wrap", (), (), pid), partial(y_wrap, hvec)))
        if l >= 2:
            for modes, e, c in theta_cases:
                items.append((("recon.theta-conj", (2, 1), modes, pid), partial(theta_conj, e, c, hvec)))
        if n > l + 1:
            items.append((("recon.wrap-display", (0, n), (), pid), partial(wrap_display, hvec)))
    return items


def psi_inverse_items(dmod, probes):
    """psi o psi_inv and psi_inv o psi are the identity."""
    items = []
    for pid, vec in probes:
        def inv_thunk(vec=vec):
            budget = WindowBudget()
            a = dmod.psi_inv(dmod.psi(dict(vec), budget), budget)
            b = dmod.psi(dmod.psi_inv(dict(vec), budget), budget)
            ra = vec_sub(a, vec)
            rb = vec_sub(b, vec)
            ok = not ra and not rb
            return ok, budget.ok(), "" if ok else "psi inverse fails"
        items.append((("psi.inverse", (), (), pid), inv_thunk))
    return items
