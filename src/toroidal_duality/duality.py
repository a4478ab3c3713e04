"""
The duality functor: a right Hecke module M paired with the fundamental
representation V gives the left module M (x)_H V^(x)l, with currents at
every vertex of the cyclic diagram.

Vectors are finitely supported maps (module key, l-tuple) -> scalar.  The
canonical form keeps every tuple nondecreasing (descents trade a slot swap
for a Hecke generator on the module side at the cost q^-1) and multiplies
the module part by the normalized q-symmetrizer idempotent of the tuple's
stabilizer, so equality of canonical dictionaries decides equality in the
tensor product over H.

Operator conventions:

  * finite vertices i in 1..n act through the coproduct on the V factors;
  * the affine node acts by the twisted formulas with the d^(-+1) scales;
  * Drinfeld modes at vertices 1..n come straight from the closed mode
    formulas (spectral scale alpha_i = q^(n+1-i) d^i, argument Y);
  * vertex 0 is psi-conjugation of vertex 1 with spectral rescale q d^-1.

Currents are indexed so that e_i(z) = sum_k e_{i,k} z^-k; a "k+" mode k
means the z^-k coefficient with k >= 0, a "k-" mode k means k <= 0.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .hecke import WindowBudget, apply_expr, apply_word, lt, tij_word, vec_scale, wmul
from .hecke import merge_vec as dvec_add  # perfbench/layers.py traces the kernel by this name
from .params import Params
from .scalars import Scalar, sc_inv, sc_mul, sc_pow
from .series import AT_INFINITY, AT_ZERO, theta_expand

JTuple = tuple[int, ...]
DKey = tuple[tuple, JTuple]
DVec = dict[DKey, Scalar]


# -- fundamental representation ----------------------------------------------

def fund_e(i, r):
    return r - 1 if r == i + 1 else None


def fund_f(i, r):
    return r + 1 if r == i else None


def fund_k_exp(i, r):
    return (1 if r == i else 0) - (1 if r == i + 1 else 0)


def fund_etheta(r, n):
    return 1 if r == n + 1 else None


def fund_ftheta(r, n):
    return n + 1 if r == 1 else None


def fund_ktheta_exp(r, n):
    return (1 if r == 1 else 0) - (1 if r == n + 1 else 0)


def t_on_tensor(i, jt, q):
    """Left T_i on a tuple basis vector of V^(x)l: the three-case matrix."""
    r, s = jt[i - 1], jt[i]
    swapped = jt[: i - 1] + (s, r) + jt[i + 1 :]
    q2 = sc_mul(q, q)
    if r == s:
        return [(jt, q2)]
    if r < s:
        return [(swapped, q)]
    return [(swapped, q), (jt, q2 - Fraction(1))]


def _first_descent(jt):
    for p in range(len(jt) - 1):
        if jt[p] > jt[p + 1]:
            return p + 1  # 1-based strand
    return None


def _blocks(jt):
    """Runs of equal entries as (start, length), 1-based, length >= 2 only."""
    out = []
    p = 0
    while p < len(jt):
        r = p
        while r + 1 < len(jt) and jt[r + 1] == jt[p]:
            r += 1
        if r > p:
            out.append((p + 1, r - p + 1))
        p = r + 1
    return tuple(out)


def _sym_group_words(k):
    """All elements of S_k as reduced words in generators 1..k-1 (suffix chains)."""
    words = [()]
    for m in range(2, k + 1):
        suffixes = [tuple(range(m - 1, m - 1 - t, -1)) for t in range(m)]
        words = [w + s for w in words for s in suffixes]
    return words


class DualityModule:
    """M (x)_H V^(x)l with its full operator suite."""

    def __init__(self, hmodule):
        p = hmodule.params
        self.h = hmodule
        self.params: Params = p
        self.n = p.n
        self.l = p.l
        self.q = p.q
        self.d = p.d
        self._qinv = sc_inv(p.q)
        self._cache = {}
        self._sym_cache = {}
        self._theta_cache = {}
        self._qfact_inv = self._build_qfact_inv(self.l + 1)

    def _build_qfact_inv(self, top):
        q = self.q
        out = [Fraction(1)]
        fact = Fraction(1)
        for m in range(1, top + 1):
            qm = Fraction(0)
            for t in range(m):
                qm = qm + sc_pow(q, m - 1 - 2 * t)
            fact = sc_mul(fact, qm)
            out.append(sc_inv(fact))
        return out

    # -- generic cached linear extension ------------------------------------

    def _linear(self, tag, fn, vec, budget=None):
        if budget is None:
            budget = WindowBudget()
        out = {}
        for key, coeff in vec.items():
            entry = self._cache.get((tag, key))
            if entry is None:
                b = WindowBudget()
                res = fn(key, b)
                entry = (tuple(sorted(res.items())), b.valid)
                self._cache[(tag, key)] = entry
            items, valid = entry
            budget.observe(valid)
            if items:
                dvec_add(out, items, coeff)
        return out

    # -- canonical form ------------------------------------------------------

    def _symmetrizer_expr(self, blocks):
        """Normalized q-symmetrizer of the parabolic stabilizer, as a word expression."""
        hit = self._sym_cache.get(blocks)
        if hit is not None:
            return hit
        q2 = sc_mul(self.q, self.q)
        block_words = []
        poincare = Fraction(1)
        for start, size in blocks:
            words = [
                tuple(("T", start - 1 + g, 1) for g in w)
                for w in _sym_group_words(size)
            ]
            block_words.append(words)
            psum = Fraction(0)
            for w in words:
                psum = psum + sc_pow(q2, len(w))
            poincare = sc_mul(poincare, psum)
        norm = sc_inv(poincare)
        expr = tuple(
            (norm, wmul(*combo)) for combo in itertools.product(*block_words)
        )
        self._sym_cache[blocks] = expr
        return expr

    def _straighten_basis(self, key, budget):
        hkey, jt = key
        pending = [({hkey: Fraction(1)}, jt)]
        by_tuple = {}
        while pending:
            hv, j = pending.pop()
            p = _first_descent(j)
            if p is None:
                dvec_add(by_tuple.setdefault(j, {}), hv.items())
            else:
                j2 = j[: p - 1] + (j[p], j[p - 1]) + j[p + 1 :]
                hv2 = apply_expr(self.h, ((self._qinv, lt("T", p)),), hv, budget)
                pending.append((hv2, j2))
        out = {}
        for j, hv in by_tuple.items():
            blocks = _blocks(j)
            if blocks:
                hv = apply_expr(self.h, self._symmetrizer_expr(blocks), hv, budget)
            dvec_add(out, [((hk, j), c) for hk, c in hv.items()])
        return out

    def straighten(self, vec, budget=None):
        return self._linear(("S",), self._straighten_basis, vec, budget)

    def _hecke_then_straighten(self, raw_terms, budget):
        """raw_terms: list of (module vector expr applied already, tuple, coeff)."""
        out = {}
        for hv, j, coeff in raw_terms:
            dvec_add(out, [((hk, j), c) for hk, c in hv.items()], coeff)
        return self.straighten(out, budget)

    # -- Kac-Moody actions ----------------------------------------------------

    def weight(self, i, jt):
        """k_{i,0} exponent on a tuple, vertices 0..n."""
        if i == 0:
            return sum(1 for v in jt if v == self.n + 1) - sum(1 for v in jt if v == 1)
        return sum(1 for v in jt if v == i) - sum(1 for v in jt if v == i + 1)

    def _finite_basis(self, kind, i, key, budget):
        hkey, jt = key
        q = self.q
        if kind in ("k", "kinv"):
            w = self.weight(i, jt)
            return {key: sc_pow(q, w if kind == "k" else -w)}
        raw = []
        if kind == "e":
            for p in range(1, self.l + 1):
                if fund_e(i, jt[p - 1]) is None:
                    continue
                wexp = sum(fund_k_exp(i, jt[t]) for t in range(p, self.l))
                j2 = jt[: p - 1] + (i,) + jt[p:]
                raw.append(({hkey: sc_pow(q, wexp)}, j2, Fraction(1)))
        elif kind == "f":
            for p in range(1, self.l + 1):
                if fund_f(i, jt[p - 1]) is None:
                    continue
                wexp = -sum(fund_k_exp(i, jt[t]) for t in range(p - 1))
                j2 = jt[: p - 1] + (i + 1,) + jt[p:]
                raw.append(({hkey: sc_pow(q, wexp)}, j2, Fraction(1)))
        else:
            raise ValueError(kind)
        return self._hecke_then_straighten(raw, budget)

    def _affine_basis(self, kind, key, budget):
        hkey, jt = key
        n, q, d = self.n, self.q, self.d
        if kind in ("k", "kinv"):
            w = -sum(fund_ktheta_exp(v, n) for v in jt)
            return {key: sc_pow(q, w if kind == "k" else -w)}
        raw = []
        if kind == "e":
            for p in range(1, self.l + 1):
                if fund_ftheta(jt[p - 1], n) is None:
                    continue
                wexp = -sum(fund_ktheta_exp(jt[t], n) for t in range(p, self.l))
                hv = apply_word(self.h, lt("Y", p, -1), {hkey: sc_pow(q, wexp)}, budget)
                j2 = jt[: p - 1] + (n + 1,) + jt[p:]
                raw.append((hv, j2, sc_inv(d)))
        elif kind == "f":
            for p in range(1, self.l + 1):
                if fund_etheta(jt[p - 1], n) is None:
                    continue
                wexp = sum(fund_ktheta_exp(jt[t], n) for t in range(p - 1))
                hv = apply_word(self.h, lt("Y", p), {hkey: sc_pow(q, wexp)}, budget)
                j2 = jt[: p - 1] + (1,) + jt[p:]
                raw.append((hv, j2, d))
        else:
            raise ValueError(kind)
        return self._hecke_then_straighten(raw, budget)

    def km(self, kind, j, vec, budget=None):
        """Kac-Moody generator action, vertices j in 1..n+1; kinds e f k kinv."""
        if j == self.n + 1:
            return self._linear(("A", kind), lambda key, b: self._affine_basis(kind, key, b), vec, budget)
        return self._linear(
            ("F", kind, j), lambda key, b: self._finite_basis(kind, j, key, b), vec, budget
        )

    # -- braid operators and the diagram rotation -----------------------------

    def _braid_basis(self, i, key, budget):
        k = self.weight(i, key[1])
        vec = {key: Fraction(1)}
        out = {}
        for t in range(self.l + 1):
            et = vec
            for _ in range(t):
                et = self.km("e", i, et, budget)
            if not et:
                break
            for r in range(self.l + 1):
                s = r + t + k
                if s < 0 or s > self.l:
                    continue
                mid = et
                for _ in range(s):
                    mid = self.km("f", i, mid, budget)
                if not mid:
                    continue
                for _ in range(r):
                    mid = self.km("e", i, mid, budget)
                if not mid:
                    continue
                sign = Fraction(-1) if (s + k) % 2 else Fraction(1)
                coeff = sc_mul(
                    sign,
                    sc_mul(
                        sc_pow(self.q, s - r * t),
                        sc_mul(
                            self._qfact_inv[r],
                            sc_mul(self._qfact_inv[s], self._qfact_inv[t]),
                        ),
                    ),
                )
                dvec_add(out, mid.items(), coeff)
        return out

    def braid(self, i, vec, budget=None):
        """Lusztig's integrable braid operator at a finite vertex i in 1..n."""
        if not 1 <= i <= self.n:
            raise ValueError(f"braid vertex {i} outside 1..{self.n}")
        return self._linear(("B", i), lambda key, b: self._braid_basis(i, key, b), vec, budget)

    def _rotate_basis(self, letter, exp, carrier, step, key, budget):
        """
        Every slot entry v moves to (v - 1 + step) % (n + 1) + 1; each slot p
        holding `carrier` first picks up the module letter (letter, p, exp).
        """
        hkey, jt = key
        n = self.n
        word = tuple((letter, p, exp) for p in range(1, self.l + 1) if jt[p - 1] == carrier)
        hv = apply_word(self.h, word, {hkey: Fraction(1)}, budget)
        j2 = tuple((v - 1 + step) % (n + 1) + 1 for v in jt)
        return self._hecke_then_straighten([(hv, j2, Fraction(1))], budget)

    def tau(self, vec, budget=None):
        """Diagram rotation on the module: slot entries advance, wrap picks up Y's."""
        return self._linear(
            ("TAU",), lambda key, b: self._rotate_basis("Y", 1, self.n + 1, 1, key, b), vec, budget
        )

    def t_omega1(self, vec, budget=None):
        """The translation operator tau'' o t''_n o ... o t''_1."""

        def basis(key, b):
            v = {key: Fraction(1)}
            for i in range(1, self.n + 1):
                v = self.braid(i, v, b)
            return self.tau(v, b)

        return self._linear(("TW1",), basis, vec, budget)

    # -- the psi twist ---------------------------------------------------------

    def psi(self, vec, budget=None):
        return self._linear(
            ("P",), lambda key, b: self._rotate_basis("X", -1, self.n + 1, 1, key, b), vec, budget
        )

    def psi_inv(self, vec, budget=None):
        return self._linear(
            ("Pi",), lambda key, b: self._rotate_basis("X", 1, 1, -1, key, b), vec, budget
        )

    # -- Drinfeld modes --------------------------------------------------------

    def _theta_coeffs(self, m, direction, order):
        key = (m, direction, order)
        hit = self._theta_cache.get(key)
        if hit is None:
            hit = theta_expand(m, direction, order, self.q).coeffs
            self._theta_cache[key] = hit
        return hit

    def _segments(self, jt, i):
        """(r, s, t) with ]r,s] the i-slots and ]s,t] the (i+1)-slots of a sorted tuple."""
        ci = sum(1 for v in jt if v == i)
        cip = sum(1 for v in jt if v == i + 1)
        before = sum(1 for v in jt if v < i)
        r = before
        s = before + ci
        t = s + cip
        return r, s, t

    def _emode_basis(self, i, k, key, budget):
        hkey, jt = key
        assert all(jt[p] <= jt[p + 1] for p in range(len(jt) - 1))
        r, s, t = self._segments(jt, i)
        if t == s:
            return {}
        pref = sc_mul(sc_pow(self.q, 1 - t + s), sc_pow(self.params.alpha(i), -k))
        words = [wmul(tij_word(kk, s + 1), lt("Y", s + 1, -k)) for kk in range(s + 1, t)]
        expr = tuple([(Fraction(1), lt("Y", s + 1, -k))] + [(Fraction(1), w) for w in words])
        hv = apply_expr(self.h, expr, {hkey: pref}, budget)
        j2 = jt[:s] + (i,) + jt[s + 1 :]
        return self._hecke_then_straighten([(hv, j2, Fraction(1))], budget)

    def _fmode_basis(self, i, k, key, budget):
        hkey, jt = key
        assert all(jt[p] <= jt[p + 1] for p in range(len(jt) - 1))
        r, s, t = self._segments(jt, i)
        if s == r:
            return {}
        pref = sc_mul(sc_pow(self.q, 1 - s + r), sc_pow(self.params.alpha(i), -k))
        words = [wmul(tij_word(kk, s - 1), lt("Y", s, -k)) for kk in range(r + 1, s)]
        expr = tuple([(Fraction(1), lt("Y", s, -k))] + [(Fraction(1), w) for w in words])
        hv = apply_expr(self.h, expr, {hkey: pref}, budget)
        j2 = jt[: s - 1] + (i + 1,) + jt[s:]
        return self._hecke_then_straighten([(hv, j2, Fraction(1))], budget)

    def _kmode_basis(self, sign, i, k, key, budget):
        hkey, jt = key
        n, q, d = self.n, self.q, self.d
        absk = abs(k)
        direction = AT_INFINITY if sign > 0 else AT_ZERO
        cpl = self._theta_coeffs(1, direction, absk)
        cmi = self._theta_coeffs(-1, direction, absk)
        e = -sign  # k+ modes shift by Y^-r, k- modes by Y^r
        factors = []
        # slots holding i scale by beta = q^(n+2-i) d^i, slots holding i+1 by
        # gamma = q^(n-i) d^i; pows[r] = scale^(e r) for a composition part r
        for carrier, coefs, qexp in ((i, cpl, n + 2 - i), (i + 1, cmi, n - i)):
            slots = [p for p in range(1, self.l + 1) if jt[p - 1] == carrier]
            if slots:
                scale = sc_mul(sc_pow(q, qexp), sc_pow(d, i))
                pows = [sc_pow(scale, e * r) for r in range(absk + 1)]
                factors += [(p, coefs, pows) for p in slots]
        if absk > 0 and not factors:
            return {}
        out_hv = {}
        for comp in _compositions(absk, len(factors)):
            coeff = Fraction(1)
            word = ()
            for (p, coefs, pows), rp in zip(factors, comp):
                coeff = sc_mul(coeff, coefs[rp])
                if rp:
                    coeff = sc_mul(coeff, pows[rp])
                    word = wmul(word, lt("Y", p, e * rp))
            dvec_add(out_hv, apply_word(self.h, word, {hkey: coeff}, budget).items())
        return self._hecke_then_straighten([(out_hv, jt, Fraction(1))], budget)

    def mode(self, kind, i, k, vec, budget=None):
        """
        Fourier mode of a current at vertex i in 0..n.

        kind "e"/"f": any integer k.  kind "k+": k >= 0; "k-": k <= 0 (the
        k = 0 modes are k_{i,0} and its inverse).  Vertex 0 is computed by
        psi-conjugation with the spectral rescale (q d^-1)^-k.
        """
        if not 0 <= i <= self.n:
            raise ValueError(f"mode vertex {i} outside 0..{self.n}")
        if kind == "k+":
            if k < 0:
                raise ValueError(f"k+ mode needs k >= 0, got {k}")
        elif kind == "k-":
            if k > 0:
                raise ValueError(f"k- mode needs k <= 0, got {k}")
        elif kind not in ("e", "f"):
            raise ValueError(kind)
        if not vec:
            return {}
        if i == 0:
            def basis(key, b):
                v = self.psi({key: Fraction(1)}, b)
                v = self.mode(kind, 1, k, v, b)
                v = self.psi_inv(v, b)
                scale = sc_pow(sc_mul(self.q, sc_inv(self.d)), -k)
                return vec_scale(scale, v)

            return self._linear(("M0", kind, k), basis, vec, budget)
        if kind == "e":
            fn = lambda key, b: self._emode_basis(i, k, key, b)
        elif kind == "f":
            fn = lambda key, b: self._fmode_basis(i, k, key, b)
        elif kind == "k+":
            fn = lambda key, b: self._kmode_basis(+1, i, k, key, b)
        else:
            fn = lambda key, b: self._kmode_basis(-1, i, k, key, b)
        return self._linear(("M", kind, i, k), fn, vec, budget)

    # -- probes ----------------------------------------------------------------

    def basis_vector(self, hkey, jt, budget=None):
        return self.straighten({(hkey, jt): Fraction(1)}, budget)

    def descriptor(self):
        return {
            "schema": "duality-module@1",
            "n": self.n,
            "l": self.l,
            "hecke": self.h.descriptor(),
        }


def dvec_to_json(vec):
    """Serializable form: sorted (module key, tuple, scalar) triples."""
    from .scalars import scalar_to_json

    return [
        [list(hk), list(jt), scalar_to_json(c)]
        for (hk, jt), c in sorted(vec.items())
    ]


def hvec_to_json(vec):
    from .scalars import scalar_to_json

    return [[list(k), scalar_to_json(c)] for k, c in sorted(vec.items())]


def _compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def nondecreasing_tuples(n, l):
    return list(itertools.combinations_with_replacement(range(1, n + 2), l))


def duality_probes(dmod, count, seed):
    """
    Canonical probes: basis vectors covering empty / singleton / repeated
    segments for every vertex first, then seeded random small combinations
    once the basis pool is exhausted.
    """
    import random

    rng = random.Random(seed)
    n, l = dmod.n, dmod.l
    tuples = nondecreasing_tuples(n, l)
    # coverage first: all-constant tuples (length >= 2 segments), then the rest
    constant = [t for t in tuples if len(set(t)) == 1]
    mixed = [t for t in tuples if len(set(t)) > 1]
    rng.shuffle(mixed)
    ordered = constant + mixed
    if dmod.h.family == "l1":
        hkeys = [()]
    else:
        reach = min(max(1, dmod.h.window - (2 * l + 4)), 2)
        hkeys = [(0,) * l, (1,) + (0,) * (l - 1)]
        while len(hkeys) * len(ordered) < count and len(hkeys) < 12:
            key = tuple(rng.randint(-reach, reach) for _ in range(l))
            if key not in hkeys:
                hkeys.append(key)
    probes = []
    idx = 0
    while len(probes) < count and idx < len(ordered) * len(hkeys):
        jt = ordered[idx % len(ordered)]
        hk = hkeys[(idx // len(ordered)) % len(hkeys)]
        vec = dmod.basis_vector(hk, jt)
        if vec:
            probes.append((f"p{len(probes):03d}", vec))
        idx += 1
    basis_pool = list(probes)
    while len(probes) < count and len(basis_pool) >= 2:
        u = dict(rng.choice(basis_pool)[1])
        dvec_add(u, list(rng.choice(basis_pool)[1].items()),
                 Fraction(rng.randint(1, 5), rng.randint(1, 3)))
        if u:
            probes.append((f"p{len(probes):03d}", u))
    return probes[:count]
