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

  * vertices j in 1..n+1 act through the coproduct on the V factors; the
    affine vertex n+1 is the wrap n+1 <-> 1, decorated by Y_p^(-+1) d^(-+1);
  * Drinfeld modes at vertices 1..n come straight from the closed mode
    formulas (spectral scale alpha_i = q^(n+1-i) d^i, argument Y);
  * vertex 0 is psi-conjugation of vertex 1 with spectral rescale q d^-1.

So every scalar a column multiplies in is +-q^a d^b (or a q-integer built
from them): the module's monomial table `qd` makes each q^a d^b once, and
the duality checks read the same table.

Currents are indexed so that e_i(z) = sum_k e_{i,k} z^-k; a "k+" mode k
means the z^-k coefficient with k >= 0, a "k-" mode k means k <= 0.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .hecke import apply_expr, apply_letter, apply_word, lt, tij_word, vec_scale, wmul
from .hecke import merge_vec as dvec_add  # perfbench/layers.py traces the kernel by this name
from .params import Params
from .scalars import MINUS_ONE, ONE, Scalar, monomials, sc_inv, sc_mul, scalar_to_json
from .series import theta_expand

JTuple = tuple[int, ...]
DKey = tuple[tuple, JTuple]
DVec = dict[DKey, Scalar]


# -- fundamental representation ----------------------------------------------

def fund_ktheta_exp(r, n):
    """k_theta exponent on one slot holding r (k_0 acts by its inverse); dualchecks reads it."""
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
        self.qd = monomials(p.q, p.d)  # (a, b) -> q^a d^b, every power of q and d the columns take
        self._cache = {}  # column tag -> {basis key: image items}
        self._mode_columns = {}  # (kind, i, k) -> (cache tag, basis function)
        self._sym_cache = {}
        self._scale_cache = {}
        self._chain_images = {}  # (kind, i, basis key) -> the e/f chain sum (`_ef_chains`)
        self._theta_prefixes = {}  # (sign, i, basis key) -> (theta factors, degree parts)
        self._theta_top = 0  # the largest |k| any k+ or k- column has asked for
        self._qfact_inv = self._build_qfact_inv(self.l + 1)
        self._braid_scales = {}  # (r, s, t, k) -> (-1)^(s+k) q^(s-rt) / ([r]! [s]! [t]!)

    def _build_qfact_inv(self, top):
        out = [ONE]
        fact = ONE
        for m in range(1, top + 1):
            qm = Fraction(0)
            for t in range(m):
                qm = qm + self.qd(m - 1 - 2 * t, 0)
            fact = sc_mul(fact, qm)
            out.append(sc_inv(fact))
        return out

    # -- generic cached linear extension ------------------------------------

    def _linear(self, tag, basis, vec):
        """
        The column operator `tag` = (label, *args) on vec: the image of a basis
        key is basis(self, *args, key), made once per (tag, key); a basis
        image that leaves the window raises, and nothing is stored for it.
        The basis is a plain function, so nothing stored holds `self`.
        """
        columns = self._cache.get(tag)
        if columns is None:
            columns = self._cache[tag] = {}
        out = {}
        for key, coeff in vec.items():
            items = columns.get(key)
            if items is None:
                items = columns[key] = tuple(sorted(basis(self, *tag[1:], key).items()))
            if items:
                dvec_add(out, items, coeff)
        return out

    # -- canonical form ------------------------------------------------------

    def _symmetrizer_expr(self, blocks):
        """Normalized q-symmetrizer of the parabolic stabilizer, as a word expression."""
        hit = self._sym_cache.get(blocks)
        if hit is not None:
            return hit
        block_words = []
        poincare = ONE
        for start, size in blocks:
            words = [
                tuple(("T", start - 1 + g, 1) for g in w)
                for w in _sym_group_words(size)
            ]
            block_words.append(words)
            psum = Fraction(0)
            for w in words:
                psum = psum + self.qd(2 * len(w), 0)
            poincare = sc_mul(poincare, psum)
        norm = sc_inv(poincare)
        expr = tuple(
            (norm, wmul(*combo)) for combo in itertools.product(*block_words)
        )
        self._sym_cache[blocks] = expr
        return expr

    def _straighten_basis(self, key):
        hkey, jt = key
        pending = [({hkey: ONE}, jt)]
        by_tuple = {}
        while pending:
            hv, j = pending.pop()
            p = _first_descent(j)
            if p is None:
                dvec_add(by_tuple.setdefault(j, {}), hv.items())
            else:
                j2 = j[: p - 1] + (j[p], j[p - 1]) + j[p + 1 :]
                hv2 = apply_expr(self.h, ((self.qd(-1, 0), lt("T", p)),), hv)
                pending.append((hv2, j2))
        out = {}
        for j, hv in by_tuple.items():
            blocks = _blocks(j)
            if blocks:
                hv = apply_expr(self.h, self._symmetrizer_expr(blocks), hv)
            dvec_add(out, [((hk, j), c) for hk, c in hv.items()])
        return out

    def straighten(self, vec):
        return self._linear(("S",), DualityModule._straighten_basis, vec)

    def place(self, raw_terms):
        """The straightened sum of coeff * hv (x) j over the (hecke vector hv, tuple j, coeff) triples."""
        out = {}
        for hv, j, coeff in raw_terms:
            dvec_add(out, [((hk, j), c) for hk, c in hv.items()], coeff)
        return self.straighten(out)

    # -- Kac-Moody actions ----------------------------------------------------

    def weight(self, i, jt):
        """k_{i,0} exponent on a tuple, vertices 0..n (vertex 0 counts n+1 in place of 0)."""
        return jt.count(i or self.n + 1) - jt.count(i + 1)

    def _km_basis(self, kind, j, key):
        """
        Vertex j in 1..n+1 through the coproduct, one slot p at a time, with
        i = j % (n+1): e moves a slot holding i+1 to j, f a slot holding j to
        i+1.  The affine vertex j = n+1 is that wrap, with the moved slot
        picking up Y_p^-+1 and the term the scale d^-+1.
        """
        hkey, jt = key
        i = j % (self.n + 1)
        if kind in ("k", "kinv"):
            w = self.weight(i, jt)
            return {key: self.qd(w if kind == "k" else -w, 0)}
        e = kind == "e"
        src, dst, sign = (i + 1, j, -1) if e else (j, i + 1, 1)
        raw = []
        for p in range(1, self.l + 1):
            if jt[p - 1] != src:
                continue
            wexp = self.weight(i, jt[p:]) if e else -self.weight(i, jt[: p - 1])
            hv = {hkey: self.qd(wexp, 0)}
            j2 = jt[: p - 1] + (dst,) + jt[p:]
            if i:
                raw.append((hv, j2, ONE))
            else:
                hv = apply_word(self.h, lt("Y", p, sign), hv)
                raw.append((hv, j2, self.qd(0, sign)))
        return self.place(raw)

    def km(self, kind, j, vec):
        """Kac-Moody generator action, vertices j in 1..n+1; kinds e f k kinv."""
        if not 1 <= j <= self.n + 1:
            raise ValueError(f"km vertex {j} outside 1..{self.n + 1}")
        if kind not in ("e", "f", "k", "kinv"):
            raise ValueError(kind)
        return self._linear(("K", kind, j), DualityModule._km_basis, vec)

    # -- braid operators and the diagram rotation -----------------------------

    def _braid_basis(self, i, key):
        """
        Lusztig's T''_i on a basis key of weight k: the sum over t, r and
        s = r + t + k of (-1)^(s+k) q^(s-rt) e^r f^s e^t / ([r]! [s]! [t]!).
        e^t is made from e^(t-1), and f^s e^t from f^(s-1) e^t as s grows
        with r; only e^r is applied afresh to each f^s e^t.  The scalar
        depends on (r, s, t, k) alone, so the module makes each once.
        """
        k = self.weight(i, key[1])
        out = {}
        et = {key: ONE}
        for t in range(self.l + 1):
            if t:
                et = self.km("e", i, et)
            if not et:
                break
            fs, s_made = et, 0  # fs = f^s_made e^t
            for r in range(self.l + 1):
                s = r + t + k
                if s < 0 or s > self.l:
                    continue
                for _ in range(s - s_made):
                    fs = self.km("f", i, fs)
                s_made = s
                if not fs:
                    break
                mid = fs
                for _ in range(r):
                    mid = self.km("e", i, mid)
                if not mid:
                    continue
                coeff = self._braid_scales.get((r, s, t, k))
                if coeff is None:
                    coeff = self._braid_scales[r, s, t, k] = sc_mul(
                        MINUS_ONE if (s + k) % 2 else ONE,
                        sc_mul(
                            self.qd(s - r * t, 0),
                            sc_mul(
                                self._qfact_inv[r],
                                sc_mul(self._qfact_inv[s], self._qfact_inv[t]),
                            ),
                        ),
                    )
                dvec_add(out, mid.items(), coeff)
        return out

    def braid(self, i, vec):
        """Lusztig's integrable braid operator at a finite vertex i in 1..n."""
        if not 1 <= i <= self.n:
            raise ValueError(f"braid vertex {i} outside 1..{self.n}")
        return self._linear(("B", i), DualityModule._braid_basis, vec)

    def _rotate_basis(self, letter, exp, step, key):
        """
        Every slot entry v moves to (v - 1 + step) % (n + 1) + 1; each slot p
        holding the entry that wraps (n + 1 for step 1, 1 for step -1) first
        picks up the module letter (letter, p, exp).
        """
        hkey, jt = key
        n = self.n
        carrier = n + 1 if step > 0 else 1
        word = tuple((letter, p, exp) for p in range(1, self.l + 1) if jt[p - 1] == carrier)
        hv = apply_word(self.h, word, {hkey: ONE})
        j2 = tuple((v - 1 + step) % (n + 1) + 1 for v in jt)
        return self.place([(hv, j2, ONE)])

    def tau(self, vec):
        """Diagram rotation on the module: slot entries advance, wrap picks up Y's."""
        return self._linear(("TAU", "Y", 1, 1), DualityModule._rotate_basis, vec)

    def _t_omega1_basis(self, key):
        v = {key: ONE}
        for i in range(1, self.n + 1):
            v = self.braid(i, v)
        return self.tau(v)

    def t_omega1(self, vec):
        """The translation operator tau'' o t''_n o ... o t''_1."""
        return self._linear(("TW1",), DualityModule._t_omega1_basis, vec)

    # -- the psi twist ---------------------------------------------------------

    def psi(self, vec):
        return self._linear(("P", "X", -1, 1), DualityModule._rotate_basis, vec)

    def psi_inv(self, vec):
        return self._linear(("Pi", "X", 1, -1), DualityModule._rotate_basis, vec)

    # -- Drinfeld modes --------------------------------------------------------

    def _theta_scales(self, sign, i, top):
        """
        Parts 0..top of the theta factor on an i-slot and on an (i+1)-slot:
        part r is the theta coefficient times beta^(e r) resp. gamma^(e r),
        e = -sign, beta = q^(n+2-i) d^i and gamma = q^(n-i) d^i.
        """
        hit = self._scale_cache.get((sign, i, top))
        if hit is None:
            n, qd, e = self.n, self.qd, -sign
            hit = self._scale_cache[sign, i, top] = tuple(
                tuple(sc_mul(coefs[r], qd(qexp * e * r, i * e * r)) for r in range(top + 1))
                for coefs, qexp in ((theta_expand(sign, top, self.q), n + 2 - i),
                                    (theta_expand(-sign, top, self.q), n - i))
            )
        return hit

    def _segments(self, jt, i):
        """(r, s, t) with ]r,s] the i-slots and ]s,t] the (i+1)-slots of a sorted tuple."""
        before = sum(1 for v in jt if v < i)
        s = before + jt.count(i)
        return before, s, s + jt.count(i + 1)

    def _efmode_basis(self, kind, i, k, key):
        """
        e moves the first (i+1)-slot m = s+1 to i, f the last i-slot m = s to
        i+1, with Y_m^-k and the T-chains from m across the rest of the moved
        segment ]lo, hi].  The sum of the module key's images under the
        empty chain and under each T-chain does not depend on k
        (`_ef_chains`), so mode k applies Y_m^-k once, to that sum, and
        passes its scalar prefactor to `place` as the coefficient.
        """
        chains = self._chain_images.get((kind, i, key))
        if chains is None:
            chains = self._chain_images[kind, i, key] = self._ef_chains(kind, i, key)
        if not chains:
            return {}
        m, lead, j2, base = chains
        hv = apply_letter(self.h, ("Y", m, -k), base)
        # q^(1-hi+lo) times the spectral scale alpha_i^-k = (q^(n+1-i) d^i)^-k
        pref = self.qd(lead - k * (self.n + 1 - i), -k * i)
        return self.place([(hv, j2, pref)])

    def _ef_chains(self, kind, i, key):
        """
        (m, 1 - hi + lo, the moved tuple, chain sum) of the e or f current
        on a basis key, or () when the moved segment ]lo, hi] is empty.  The
        chain sum is the module key's image under the empty chain plus its
        images under each T-chain, one k-free Hecke vector.
        """
        hkey, jt = key
        assert all(jt[p] <= jt[p + 1] for p in range(len(jt) - 1))
        r, s, t = self._segments(jt, i)
        e = kind == "e"
        lo, hi = (s, t) if e else (r, s)
        if lo == hi:
            return ()
        m = s + 1 if e else s
        base = {hkey: ONE}  # the empty chain's image
        for kk in range(lo + 1, hi):
            dvec_add(base, apply_word(self.h, tij_word(kk, m if e else m - 1), {hkey: ONE}).items())
        j2 = jt[: m - 1] + (i if e else i + 1,) + jt[m:]
        return m, 1 - hi + lo, j2, base

    def _kmode_basis(self, kind, i, k, key):
        """
        The k+ (k >= 0) or k- (k <= 0) mode on a basis key: the z^-k
        coefficient of the product, over the slots p holding i or i+1, of a
        theta series in Y_p, theta_1 on an i-slot and theta_-1 on an
        (i+1)-slot, at infinity for k+ and at zero for k-.  A theta at zero
        is the theta of the opposite m at infinity (`series`), so a k- mode
        reads the coefficients of theta_-1 and theta_1.  The product is
        expanded slot by slot with one partial module vector per degree
        t <= |k| (`_theta_slots`).  The product over every slot but the last
        does not depend on k: `_theta_prefixes` keeps its degree parts
        0..D, D the largest |k| asked of this module so far, and mode k
        applies only the last slot, to parts 0..|k|.
        """
        hkey, jt = key
        absk = abs(k)
        if i not in jt and i + 1 not in jt:
            return {} if absk else self.place([({hkey: ONE}, jt, ONE)])
        sign = 1 if kind == "k+" else -1
        self._theta_top = max(self._theta_top, absk)
        prefix = self._theta_prefixes.get((sign, i, key))
        if prefix is None or len(prefix[1]) <= absk:
            prefix = self._theta_prefixes[sign, i, key] = self._theta_prefix(sign, i, key)
        factors, parts = prefix
        parts = [dict(items) for items in parts[: absk + 1]]
        # k+ modes shift by Y^-r, k- modes by Y^r
        parts = self._theta_slots(-sign, factors, (len(factors) - 1,), parts)
        return self.place([(parts[absk], jt, ONE)])

    def _theta_prefix(self, sign, i, key):
        """
        (factors, degree parts) of the k+ (sign 1) or k- (sign -1) theta
        product on a basis key, taken over every slot but the last up to
        degree D = `_theta_top`: factors lists each slot p holding i or i+1,
        i-slots first, with its parts 0..D; parts[t] is an item tuple.
        """
        hkey, jt = key
        top = self._theta_top
        factors = []
        for carrier, scale in zip((i, i + 1), self._theta_scales(sign, i, top)):
            factors += [(p, scale) for p in range(1, self.l + 1) if jt[p - 1] == carrier]
        parts = [{hkey: ONE}] + [{} for _ in range(top)]
        parts = self._theta_slots(-sign, factors, range(len(factors) - 1), parts)
        return factors, tuple(tuple(hv.items()) for hv in parts)

    def _theta_slots(self, e, factors, slots, parts):
        """
        Multiply the degree parts 0..top, top = len(parts) - 1, by the theta
        factors at the positions `slots` of `factors`: each slot takes a part
        r of the degree left, as Y_p^(e r) times its scaled coefficient, and
        the last slot of `factors` takes all of it, r = top - t.
        """
        last = len(factors) - 1
        top = len(parts) - 1
        for at in slots:
            p, scale = factors[at]
            grown = [{} for _ in parts]
            for t, hv in enumerate(parts):
                if not hv:
                    continue
                for r in range(top - t if at == last else 0, top - t + 1):
                    hv_r = apply_letter(self.h, ("Y", p, e * r), hv) if r else hv
                    dvec_add(grown[t + r], hv_r.items(), scale[r])
            parts = grown
        return parts

    def mode(self, kind, i, k, vec):
        """
        Fourier mode of a current at vertex i in 0..n.

        kind "e"/"f": any integer k.  kind "k+": k >= 0; "k-": k <= 0 (the
        k = 0 modes are k_{i,0} and its inverse).  Vertex 0 is computed by
        psi-conjugation with the spectral rescale (q d^-1)^-k.
        """
        column = self._mode_columns.get((kind, i, k))
        if column is None:  # invalid arguments raise here, and are never stored
            column = self._mode_columns[kind, i, k] = self._mode_column(kind, i, k)
        return self._linear(*column, vec)

    def _mode_column(self, kind, i, k):
        """The `_linear` cache tag and basis function of mode (kind, i, k), once its arguments are checked."""
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
        if i == 0:
            return ("M0", kind, k), DualityModule._mode0_basis
        if kind in ("e", "f"):
            return ("M", kind, i, k), DualityModule._efmode_basis
        return ("M", kind, i, k), DualityModule._kmode_basis

    def _mode0_basis(self, kind, k, key):
        v = self.psi({key: ONE})
        v = self.mode(kind, 1, k, v)
        v = self.psi_inv(v)
        return vec_scale(self.qd(-k, k), v)

    # -- probes ----------------------------------------------------------------

    def basis_vector(self, hkey, jt):
        return self.straighten({(hkey, jt): ONE})


def dvec_to_json(vec):
    """Serializable form: sorted (module key, tuple, scalar) triples."""
    return [
        [list(hk), list(jt), scalar_to_json(c)]
        for (hk, jt), c in sorted(vec.items())
    ]


def hvec_to_json(vec):
    return [[list(k), scalar_to_json(c)] for k, c in sorted(vec.items())]


def nondecreasing_tuples(n, l):
    return list(itertools.combinations_with_replacement(range(1, n + 2), l))


def duality_probes(dmod, count, seed):
    """
    Canonical probes: basis vectors covering empty / singleton / repeated
    segments for every vertex first, then seeded random small combinations
    once the basis pool is exhausted.
    """
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
