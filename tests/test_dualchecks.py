"""Conjugation, intertwining, and closed-form regression suites."""

import os
import subprocess
import sys
from fractions import Fraction
from functools import partial
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toroidal_duality import dualchecks
from toroidal_duality.config import load_config
from toroidal_duality.duality import DualityModule, duality_probes, dvec_add
from toroidal_duality.dualchecks import (
    CoefficientScalars,
    gen_symbols,
    intertwining_items,
    omega_images,
    psi_conjugation_items,
    psi_inverse_items,
    reconstruction_items,
    regression_items,
    scalar_terms,
    substitute,
    tprime_symbol,
)
from toroidal_duality.hecke import PolynomialModule, UnitModule, WindowExit, hecke_probes
from toroidal_duality.params import specialized_params
from toroidal_duality.qtoroidal import CartanData
from toroidal_duality.reports import MINUS_ONE, ONE, identity, run_relation_items
from toroidal_duality.scalars import D, Q, monomials, sc_inv


@pytest.fixture(scope="module")
def dm_unit():
    p = specialized_params(n=3, l=1, q=2, d=2)
    return DualityModule(UnitModule(Fraction(5), Fraction(7), p))


@pytest.fixture(scope="module")
def dm_poly():
    p = specialized_params(n=4, l=2, q=2, d=3)
    return DualityModule(PolynomialModule(p, window=8))


def assert_all_pass(items):
    reports = run_relation_items(items)
    bad = [r for r in reports if r.status != "pass"]
    assert bad == [], bad[:5]
    return reports


def test_tprime_tables():
    # words in acting order: -f_1 k_1 acts by k_1 first
    cartan = CartanData(3)
    assert tprime_symbol(1, ("e", 1), cartan) == (((-1, 0, 0), (("k", 1), ("f", 1))),)
    assert tprime_symbol(1, ("e", 3), cartan) == (((1, 0, 0), (("e", 3),)),)
    img = tprime_symbol(1, ("e", 2), cartan)
    assert ((-1, 0, 0), (("e", 2), ("e", 1))) in img  # -e_1 e_2
    assert ((1, -1, 0), (("e", 1), ("e", 2))) in img  # q^-1 e_2 e_1
    # the wrap vertex n+1 = 4 is adjacent to 1 on the cyclic diagram
    img = tprime_symbol(1, ("e", 4), cartan)
    assert len(img) == 2
    # Cartan images follow the weight-lattice reflection
    assert tprime_symbol(1, ("k", 1), cartan) == (((1, 0, 0), (("kinv", 1),)),)
    assert tprime_symbol(1, ("k", 2), cartan) == (((1, 0, 0), (("k", 1), ("k", 2))),)
    assert tprime_symbol(2, ("k", 4), cartan) == (((1, 0, 0), (("k", 4),)),)


def _counting_merges(monkeypatch):
    """Patch the merge that `scalar_terms` falls back to; returns the list of its calls."""
    merges = []

    def counted(vec, terms, *args):
        merges.append(len(terms))
        return dvec_add(vec, terms, *args)

    monkeypatch.setattr(dualchecks, "dvec_add", counted)
    return merges


def _tprime_value(coeff, q, d):
    """The scalar of a table coefficient (sign, q exponent, d exponent), by the stdlib operators."""
    sign, a, b = coeff
    return Fraction(sign) * (q ** a if a >= 0 else sc_inv(q) ** -a) * (d ** b if b >= 0 else sc_inv(d) ** -b)


def test_tprime_multiplicative(monkeypatch):
    # the image of a product is the expanded product of the images, merged by word
    # and negated: the repeated input word merges, and the two e_3 e_4 terms cancel
    merges = _counting_merges(monkeypatch)
    cartan = CartanData(3)
    images = {x: tprime_symbol(2, x, cartan) for x in (("e", 2), ("e", 3), ("e", 4), ("k", 3))}
    expr = (((1, 0, 1), (("e", 3), ("e", 2), ("k", 3))), ((1, 1, 0), (("e", 2), ("k", 3))),
            ((-1, 0, 0), (("e", 3), ("e", 2), ("k", 3))), ((1, 1, -1), (("e", 3), ("e", 4))),
            ((-1, 1, -1), (("e", 3), ("e", 4))))
    want = {}
    for coeff, word in expr:
        for factors in product(*(images[x] for x in word)):
            w, c = (), -_tprime_value(coeff, Q, D)
            for c2, w2 in factors:
                w, c = w + w2, c * _tprime_value(c2, Q, D)
            want[w] = want[w] + c if w in want else c
    want = [(w, type(c), c) for w, c in want.items() if c]
    got = scalar_terms(substitute(expr, images), CoefficientScalars(monomials(Q, D)), ())
    assert sorted((w, type(c), c) for c, w in got) == sorted(want)  # equal terms, as multisets
    assert len(got) == 3 and not any(("e", 4) in w for _, w in got)
    assert len(merges) == 1  # the repeated word and the cancelling pair take the merge


def test_psi_conjugation(dm_unit, dm_poly):
    for dm, K in ((dm_unit, 2), (dm_poly, 2)):
        probes = duality_probes(dm, 4, seed=3)
        assert_all_pass(psi_conjugation_items(dm, K, probes))


def test_intertwining(dm_unit, dm_poly):
    for dm in (dm_unit, dm_poly):
        probes = duality_probes(dm, 4, seed=3)
        reports = assert_all_pass(intertwining_items(dm, probes))
        assert {r.relation for r in reports} == {"braid.intertwine", "rotation.intertwine", "translation.intertwine"}


def test_regressions(dm_unit, dm_poly):
    for dm, K in ((dm_unit, 2), (dm_poly, 2)):
        probes = duality_probes(dm, 5, seed=3)
        reports = assert_all_pass(regression_items(dm, K, probes))
        ids = {r.relation for r in reports}
        assert {"reg.translation-product", "reg.first-vertex-mode", "reg.cartan-weight", "reg.cartan-mode1",
                "reg.charge-one", "reg.wrap-e0", "reg.wrap-f0",
                "reg.wrap-k0", "reg.standard-e0"} <= ids
        if dm.l == 1:
            assert {"reg.braid-slot", "reg.translation-sign"} <= ids


def test_reconstruction(dm_poly):
    hp = hecke_probes(dm_poly.h, 10, seed=5)
    reports = assert_all_pass(reconstruction_items(dm_poly, 2, hp))
    ids = {r.relation for r in reports}
    assert {"recon.y-shift", "recon.y-wrap", "recon.theta-conj", "recon.wrap-display"} <= ids


def test_reconstruction_wrap_needs_room():
    # n > l + 1 is required for the second display; at n = 4, l = 2 it runs,
    # and the item list drops it when the margin is exactly used up
    p = specialized_params(n=4, l=2, q=2, d=3)
    dm = DualityModule(PolynomialModule(p, window=8))
    hp = hecke_probes(dm.h, 3, seed=5)
    ids = {meta[0] for meta, _ in reconstruction_items(dm, 1, hp)}
    assert "recon.wrap-display" in ids  # 4 > 3


def test_psi_inverse_items(dm_poly):
    probes = duality_probes(dm_poly, 6, seed=3)
    assert_all_pass(psi_inverse_items(dm_poly, probes))


def test_symbolic_duality_residuals_are_exact_zero():
    # formal q, d: the same relation instances vanish identically, not just
    # at a specialization
    from toroidal_duality.params import symbolic_params
    from toroidal_duality.qtoroidal import current_relation_items

    dm = DualityModule(PolynomialModule(symbolic_params(n=4, l=2), window=6))
    probes = duality_probes(dm, 2, seed=7)
    for pid, vec in probes:
        for i in range(1, dm.n + 1):
            assert dm.mode("e", i, 0, dict(vec)) == dm.km("e", i, dict(vec))
    items = current_relation_items(dm, 1, probes)
    sample = [entry for entry in items
              if entry[0][0] in ("2.1.3", "2.1.5", "2.1.6") and entry[0][1] in ((1, 1), (1, 2), (2, 1))]
    assert len(sample) == 126
    for meta, thunk in sample:
        assert thunk() == "", meta
    # the braid-based regressions force q-factorial quotients through the
    # fraction kernel; they must vanish identically as well
    for meta, thunk in list(regression_items(dm, 1, probes)) + list(psi_conjugation_items(dm, 1, probes)):
        assert thunk() == "", meta


def test_eval_nc_order(dm_unit):
    # words list their letters in acting order: the first letter is applied first
    vec = dm_unit.basis_vector((), (2,))
    manual = dm_unit.km("e", 1, dm_unit.km("k", 1, dict(vec)))
    assert manual and manual != dm_unit.km("k", 1, dm_unit.km("e", 1, dict(vec)))
    assert identity(vec, dm_unit, ((ONE, (("k", 1), ("e", 1))), (MINUS_ONE, lambda: manual))) == ""


# -- the translation tables against their first, per-letter construction -------


def _omega_reference(n, q, d):
    """Every letter's image multiplied in and every wrap letter scaled on its own."""
    cartan = CartanData(n)
    # the four coefficients of t'_i: 1, -1, q^-1 and q
    value = {(1, 0, 0): Fraction(1), (-1, 0, 0): Fraction(-1), (1, -1, 0): sc_inv(q), (1, 1, 0): q}
    scale = {("e", n): d, ("e", n + 1): sc_inv(d), ("f", n): sc_inv(d), ("f", n + 1): d}
    out = {}
    for sym in gen_symbols(n):
        expr = [(Fraction(1), (sym,))]
        for i in range(1, n + 1):
            merged = {}
            for coeff, word in expr:
                terms = [((), coeff)]
                for letter in word:
                    terms = [(w1 + w2, c1 * value[c2]) for w1, c1 in terms
                             for c2, w2 in tprime_symbol(i, letter, cartan)]
                for w, c in terms:
                    merged[w] = merged[w] + c if w in merged else c
            expr = [(c, w) for w, c in sorted(merged.items()) if c]
        image = []
        for c, word in expr:
            for letter in word:
                c = c * scale.get(letter, Fraction(1))
            image.append((c, tuple((kind, j % (n + 1) + 1) for kind, j in word)))
        out[sym] = tuple(image)
    return out


def _assert_omega_images_match_reference(n, q, d, monkeypatch):
    with monkeypatch.context() as m:
        merges = _counting_merges(m)
        got = omega_images(n, monomials(q, d))
    assert merges == [], n  # no word comes up twice at any level
    want = _omega_reference(n, q, d)
    assert got.keys() == want.keys()
    for sym in want:
        words = [w for _, w in got[sym]]
        assert len(set(words)) == len(words), (n, sym)
        assert all(w[0] == ("t_omega1",) for w in words), (n, sym)  # each image acts after t_omega1
        # the negated image: equal values of equal scalar kinds, as multisets
        want_terms = sorted((w, type(c), -c) for c, w in want[sym])
        assert sorted((w[1:], type(c), c) for c, w in got[sym]) == want_terms, (n, sym)
    return sum(map(len, got.values()))


@pytest.mark.parametrize("q, d", [(Fraction(2), Fraction(3)), (Fraction(-5, 7), Fraction(11, 3)), (Q, D)],
                         ids=["specialized", "specialized-negative", "formal"])
def test_omega_images_match_per_letter_reference(q, d, monkeypatch):
    for n in range(2, 7):
        _assert_omega_images_match_reference(n, q, d, monkeypatch)


def test_omega_images_match_per_letter_reference_at_n7(monkeypatch):
    # the largest table where the level-by-level composition and the
    # per-generator reference differ most in how they reach each word
    assert _assert_omega_images_match_reference(7, Fraction(2), Fraction(3), monkeypatch) == 11568


_TABLE_DIGEST = """
import hashlib, sys
from fractions import Fraction
from toroidal_duality.dualchecks import omega_images
from toroidal_duality.scalars import monomials
images = omega_images(int(sys.argv[1]), monomials(Fraction(2), Fraction(3)))
print(hashlib.sha256(repr(sorted(images.items())).encode()).hexdigest())
"""


def test_omega_images_at_n8_never_merge_and_keep_one_order(monkeypatch):
    merges = _counting_merges(monkeypatch)
    images = omega_images(8, monomials(Fraction(2), Fraction(3)))
    assert merges == []
    assert sum(map(len, images.values())) == 44977
    for sym, image in images.items():
        words = [w for _, w in image]
        assert len(set(words)) == len(words), sym
    # no sort fixes the order of the terms, so it must not depend on string hashing
    src = str(Path(dualchecks.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    digests = {subprocess.run([sys.executable, "-c", _TABLE_DIGEST, "8"], env={**env, "PYTHONHASHSEED": seed},
                              capture_output=True, text=True, check=True).stdout for seed in ("0", "1")}
    assert len(digests) == 1, digests


def _apply_letter(dmod, letter, v):
    """One letter, called directly: a generator (kind, j) or (operator, *arguments)."""
    name, *args = letter
    if name in ("e", "f", "k", "kinv"):
        return dmod.km(name, *args, v)
    return getattr(dmod, name)(*args, v)


def _eval_word_by_word(dmod, expr, vec):
    out = {}
    for c, word in expr:
        v = dict(vec)
        for letter in word:
            v = _apply_letter(dmod, letter, v)
            if not v:
                break
        dvec_add(out, v.items(), c)
    return out


def _outcome(check, *args):
    """A check's note, or ("skip", the exception's text) when it leaves the window."""
    try:
        return check(*args)
    except WindowExit as exc:
        return "skip", str(exc)


@pytest.fixture(scope="module")
def dm_edge():
    # window 2 with an input key outside it: symmetrizing that key leaves the window
    p = specialized_params(n=4, l=2, q=2, d=3)
    dm = DualityModule(PolynomialModule(p, window=2))
    vecs = [dm.basis_vector((0, 0), (1, 2)), dm.basis_vector((1, 0), (2, 5)),
            dm.basis_vector((0, 0), (5, 5)), {((3, -1), (1, 2)): Fraction(1), ((0, 0), (3, 3)): Fraction(2)}]
    return dm, vecs


# the whole alphabet at n = 4: generators at 1..5, modes of every kind at
# vertices 0..4 (k+ / k- inside their sign range), and the operators
letters = st.one_of(
    st.tuples(st.sampled_from(("e", "f", "k", "kinv")), st.integers(1, 5)),
    st.tuples(st.just("mode"), st.sampled_from(("e", "f")), st.integers(0, 4), st.integers(-2, 2)),
    st.tuples(st.just("mode"), st.just("k+"), st.integers(0, 4), st.integers(0, 2)),
    st.tuples(st.just("mode"), st.just("k-"), st.integers(0, 4), st.integers(-2, 0)),
    st.tuples(st.just("braid"), st.integers(1, 4)),
    st.sampled_from((("tau",), ("psi",), ("psi_inv",), ("t_omega1",), ("straighten",))),
)
words = st.lists(letters, max_size=4).map(tuple)
coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))


@st.composite
def nc_exprs(draw):
    """NC expressions whose words often begin with each other's letters, prefixes included."""
    terms = draw(st.lists(st.tuples(coeffs, words), max_size=6))
    cuts = draw(st.lists(st.integers(0, 4), max_size=len(terms)))
    terms += [(c, w[:cut]) for (c, w), cut in zip(terms, cuts)]
    return tuple(terms)


@st.composite
def memo_runs(draw):
    """(probe index, expression) pairs; later words extend earlier ones, which act first."""
    run = []
    for _ in range(draw(st.integers(1, 4))):
        expr = draw(nc_exprs())
        if run:
            earlier = draw(st.sampled_from(run))[1]
            expr += tuple((c, w + draw(words)) for c, w in earlier)
        run.append((draw(st.integers(0, 3)), expr))
    return run


E1, F2 = ("e", 1), ("f", 2)


@given(run=memo_runs())
@settings(max_examples=60, deadline=None)
# e_1 leaves the window on probe 3, e_1 e_1 is empty there, and both are
# reused as prefixes: their cached validity must carry over
@example(run=[(3, ((ONE, (E1,)),)), (0, ((ONE, (E1,)),)), (3, ((ONE, (E1, E1)),)),
              (3, ((Fraction(2), (E1, E1, F2)), (ONE, (E1, F2))))])
# single expressions: a word and its own prefix, a repeated word, modes with
# the psi pair, and the translation and rotation operators
@example(run=[(3, ((ONE, (E1, E1)), (Fraction(2), (E1,)), (Fraction(-1), ())))])
@example(run=[(0, ((ONE, (("k", 1), F2)), (ONE, (("k", 1), F2))))])
@example(run=[(1, ((ONE, (("mode", "k+", 2, 1), ("mode", "e", 0, 1))), (Fraction(3), (("psi",), ("psi_inv",)))))])
@example(run=[(2, ((ONE, (("braid", 2), ("t_omega1",))), (Fraction(-2), (("mode", "k-", 0, -1), ("tau",)))))])
def test_word_memo_matches_word_by_word(dm_edge, run):
    # one ops object evaluates the whole run through `identity`, so later
    # checks find words that earlier checks put in its memo
    dm, vecs = dm_edge
    ops, ref = (DualityModule(PolynomialModule(dm.params, window=2)) for _ in range(2))
    for which, expr in run:
        try:
            want = _eval_word_by_word(ref, expr, vecs[which])
        except WindowExit as exc:  # the check leaves the window at the same letter and key
            assert _outcome(identity, vecs[which], ops, expr) == ("skip", str(exc))
            continue
        assert identity(vecs[which], ops, expr + ((MINUS_ONE, lambda: want),)) == ""


def test_words_act_first_letter_first(dm_poly):
    # e_{1,0} f_{1,0} and f_{1,0} e_{1,0} differ on this probe, so only the word
    # that lists f first states the product e_{1,0} f_{1,0}
    (_, p0), (_, p1) = duality_probes(dm_poly, 2, seed=3)
    vec = {**p0, **p1}
    e, f = ("mode", "e", 1, 0), ("mode", "f", 1, 0)
    ef = dm_poly.mode("e", 1, 0, dm_poly.mode("f", 1, 0, dict(vec)))
    fe = dm_poly.mode("f", 1, 0, dm_poly.mode("e", 1, 0, dict(vec)))
    assert ef and fe and ef != fe
    assert identity(vec, dm_poly, ((ONE, (f, e)), (MINUS_ONE, lambda: ef))) == ""
    assert identity(vec, dm_poly, ((ONE, (e, f)), (MINUS_ONE, lambda: ef)))


# signed statements over the mode, Kac-Moody and psi letters at n = 4
statement_letters = st.one_of(
    st.tuples(st.sampled_from(("e", "f", "k", "kinv")), st.integers(1, 5)),
    st.tuples(st.just("mode"), st.sampled_from(("e", "f")), st.integers(0, 4), st.integers(-2, 2)),
    st.tuples(st.just("mode"), st.just("k+"), st.integers(0, 4), st.integers(0, 2)),
    st.tuples(st.just("mode"), st.just("k-"), st.integers(0, 4), st.integers(-2, 0)),
    st.sampled_from((("psi",), ("psi_inv",))),
)


@st.composite
def statements(draw):
    """
    (probe index, expressions of signed terms); a term stated as ("closed", word)
    becomes a closed form that evaluates its word, and often cancels the word's own term.
    """
    exprs = []
    for _ in range(draw(st.integers(1, 3))):
        terms = []
        for c, word in draw(st.lists(st.tuples(coeffs, st.lists(statement_letters, max_size=3).map(tuple)),
                                     min_size=1, max_size=4)):
            form = draw(st.sampled_from(("word", "closed", "cancelled")))
            if form != "closed":
                terms.append((c, word))
            if form != "word":
                terms.append((-c if form == "cancelled" else c, ("closed", word)))
        exprs.append(tuple(terms))
    return draw(st.integers(0, 3)), exprs


def _word_value(dmod, word, vec):
    """One word on vec, applied letter by letter, first letter first."""
    return _eval_word_by_word(dmod, ((ONE, word),), vec)


def _reference_check(dmod, exprs, vec):
    """The check's note with every word applied letter by letter, first letter first."""
    note = ""
    for expr in exprs:
        res = {}
        for c, word in expr:
            dvec_add(res, (word() if callable(word) else _word_value(dmod, word, vec)).items(), c)
        if res and not note:
            note = f"residual has {len(res)} term(s); lead key {min(res)}"
    return note


@given(statement=statements())
@settings(max_examples=60, deadline=None)
# a word and its closed form cancel, and e_1 leaves the window on probe 3
@example(statement=(3, [((ONE, (("e", 1), ("mode", "f", 1, 0))),
                         (MINUS_ONE, ("closed", (("e", 1), ("mode", "f", 1, 0)))))]))
# psi then a mode against the closed form of the other order, in a second expression
@example(statement=(0, [((ONE, ()),), ((ONE, (("psi",), ("mode", "e", 2, 1))),
                                       (MINUS_ONE, ("closed", (("mode", "e", 2, 1), ("psi",)))))]))
def test_signed_statements_match_letter_by_letter_reference(dm_edge, statement):
    dm, vecs = dm_edge
    which, exprs = statement
    vec = vecs[which]
    ops, ref, closed = (DualityModule(PolynomialModule(dm.params, window=2)) for _ in range(3))

    # a closed form evaluates its word on a module of its own
    exprs = [tuple((c, partial(_word_value, closed, word[1], vec) if word[:1] == ("closed",) else word)
                   for c, word in expr) for expr in exprs]
    assert _outcome(identity, vec, ops, *exprs) == _outcome(_reference_check, ref, exprs, vec)


@pytest.mark.parametrize("letter", [("mode", "k+", 1, -1), ("mode", "k-", 2, 1)])
def test_trie_keeps_the_mode_range_check(dm_edge, letter):
    # a Cartan mode outside its sign range is an error of the check's statement,
    # not a zero term: the builders leave such terms out themselves
    dm, vecs = dm_edge
    with pytest.raises(ValueError, match="mode needs"):
        identity(vecs[0], dm, ((ONE, (letter,)), (MINUS_ONE, lambda: {})))


def test_edge_probe_leaves_window_and_words_empty_out(dm_edge):
    # the property above sees evaluations that leave the window and words that stop early
    dm, vecs = dm_edge
    with pytest.raises(WindowExit):
        dm.km("e", 1, dict(vecs[3]))
    assert not dm.km("e", 1, dm.km("e", 1, dict(vecs[0])))


# -- planted faults in the translation tables ----------------------------------


@pytest.fixture(scope="module")
def poly_two_probes():
    cfg = load_config(preset="poly", overrides={"probes": 2}, env={})
    dm = DualityModule(cfg.build_hecke_module())
    return dm, duality_probes(dm, cfg.probes, cfg.seed)


def _translation_failures(dm, probes):
    items = [entry for entry in intertwining_items(dm, probes) if entry[0][0] == "translation.intertwine"]
    assert items
    return sum(r.status == "fail" for r in run_relation_items(items))


def test_intertwining_items_build_the_tables_once_at_the_call(dm_poly, monkeypatch):
    calls = []

    def counted(n, qd):
        calls.append(n)
        return omega_images(n, qd)

    monkeypatch.setattr(dualchecks, "omega_images", counted)
    for count in (1, 3):
        calls.clear()
        items = intertwining_items(dm_poly, duality_probes(dm_poly, count, seed=3))
        assert calls == [dm_poly.n]  # at the call, before any item is taken
        reports = assert_all_pass(items)
        assert calls == [dm_poly.n]
        assert sum(r.relation == "translation.intertwine" for r in reports) == 3 * (dm_poly.n + 1) * count


def test_translation_catches_planted_table_faults(poly_two_probes, monkeypatch):
    dm, probes = poly_two_probes
    assert _translation_failures(dm, probes) == 0

    with monkeypatch.context() as m:
        m.setattr(dualchecks, "wrap_exponent", lambda kind, j, n: 0)
        assert _translation_failures(dm, probes) > 0

    def flip_one_sign(n, qd):
        images = omega_images(n, qd)
        *rest, (c, w) = images[("f", 1)]
        images[("f", 1)] = (*rest, (-c, w))
        return images

    with monkeypatch.context() as m:
        m.setattr(dualchecks, "omega_images", flip_one_sign)
        assert _translation_failures(dm, probes) > 0

    def drop_one_term(n, qd):
        # f_1's last term is a composed word that acts on these probes
        images = omega_images(n, qd)
        images[("f", 1)] = images[("f", 1)][:-1]
        return images

    with monkeypatch.context() as m:
        m.setattr(dualchecks, "omega_images", drop_one_term)
        assert _translation_failures(dm, probes) > 0
