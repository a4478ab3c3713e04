"""Conjugation, intertwining, and closed-form regression suites."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toroidal_duality import dualchecks
from toroidal_duality.config import load_config
from toroidal_duality.duality import DualityModule, duality_probes, dvec_add
from toroidal_duality.dualchecks import (
    gen_symbols,
    intertwining_items,
    omega_images,
    psi_conjugation_items,
    psi_inverse_items,
    reconstruction_items,
    regression_items,
    tprime_expr,
    tprime_symbol,
)
from toroidal_duality.hecke import PolynomialModule, UnitModule, WindowBudget, hecke_probes
from toroidal_duality.params import specialized_params
from toroidal_duality.qtoroidal import CartanData
from toroidal_duality.reports import eval_trie, nc_trie, run_relation_items
from toroidal_duality.scalars import D, Q, sc_inv


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
    cartan = CartanData(3)
    assert tprime_symbol(1, ("e", 1), cartan, Q) == ((Fraction(-1), (("f", 1), ("k", 1))),)
    assert tprime_symbol(1, ("e", 3), cartan, Q) == ((Fraction(1), (("e", 3),)),)
    img = tprime_symbol(1, ("e", 2), cartan, Q)
    assert (Fraction(-1), (("e", 1), ("e", 2))) in img
    assert (sc_inv(Q), (("e", 2), ("e", 1))) in img
    # the wrap vertex n+1 = 4 is adjacent to 1 on the cyclic diagram
    img = tprime_symbol(1, ("e", 4), cartan, Q)
    assert len(img) == 2
    # Cartan images follow the weight-lattice reflection
    assert tprime_symbol(1, ("k", 1), cartan, Q) == ((Fraction(1), (("kinv", 1),)),)
    assert tprime_symbol(1, ("k", 2), cartan, Q) == ((Fraction(1), (("k", 2), ("k", 1))),)
    assert tprime_symbol(2, ("k", 4), cartan, Q) == ((Fraction(1), (("k", 4),)),)


def test_tprime_multiplicative():
    cartan = CartanData(3)
    expr = ((Fraction(1), (("e", 2), ("k", 3))),)
    out = tprime_expr(2, expr, cartan, Q)
    # image of a product is the product of images, expanded
    assert all(len(word) >= 2 for _, word in out)


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
              if entry[0][0] in ("2.1.5", "2.1.6") and entry[0][1] in ((1, 1), (1, 2))]
    assert sample
    for meta, thunk in sample:
        zero, valid, note = thunk()
        assert valid and zero, (meta, note)
    # the braid-based regressions force q-factorial quotients through the
    # fraction kernel; they must vanish identically as well
    for meta, thunk in regression_items(dm, 1, probes) + psi_conjugation_items(dm, 1, probes):
        zero, valid, note = thunk()
        assert valid and zero, (meta, note)


def test_eval_nc_order(dm_unit):
    # words evaluate rightmost-first (left action)
    vec = dm_unit.basis_vector((), (2,))
    budget = WindowBudget()
    ek = eval_trie(dm_unit, nc_trie(((Fraction(1), (("e", 1), ("k", 1))),)), vec, budget)
    manual = dm_unit.km("e", 1, dm_unit.km("k", 1, dict(vec)))
    assert ek == manual


# -- the translation tables against their first, per-letter construction -------


def _omega_reference(n, q, d):
    """Every letter's image multiplied in and every wrap letter scaled on its own."""
    cartan = CartanData(n)
    scale = {("e", n): d, ("e", n + 1): sc_inv(d), ("f", n): sc_inv(d), ("f", n + 1): d}
    out = {}
    for sym in gen_symbols(n):
        expr = [(Fraction(1), (sym,))]
        for i in range(1, n + 1):
            merged = {}
            for coeff, word in expr:
                terms = [((), coeff)]
                for letter in word:
                    terms = [(w1 + w2, c1 * c2) for w1, c1 in terms
                             for c2, w2 in tprime_symbol(i, letter, cartan, q)]
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


@pytest.mark.parametrize("q, d", [(Fraction(2), Fraction(3)), (Fraction(-5, 7), Fraction(11, 3)), (Q, D)],
                         ids=["specialized", "specialized-negative", "formal"])
def test_omega_images_match_per_letter_reference(q, d):
    for n in range(2, 7):
        got, want = omega_images(n, q, d), _omega_reference(n, q, d)
        assert got.keys() == want.keys()
        for sym in want:
            # equal values of equal scalar kinds, term by term and in order
            assert [(type(c), c, w) for c, w in got[sym]] == [(type(c), c, w) for c, w in want[sym]], (n, sym)


def _apply_letter(dmod, letter, v, budget):
    """One letter, called directly: a generator (kind, j) or (operator, *arguments)."""
    name, *args = letter
    if name in ("e", "f", "k", "kinv"):
        return dmod.km(name, *args, v, budget)
    return getattr(dmod, name)(*args, v, budget)


def _eval_word_by_word(dmod, expr, vec, budget):
    out = {}
    for c, word in expr:
        v = dict(vec)
        for letter in reversed(word):
            v = _apply_letter(dmod, letter, v, budget)
            if not v:
                break
        dvec_add(out, v.items(), c)
    return out


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
    """NC expressions whose words often end in each other's letters, suffixes included."""
    terms = draw(st.lists(st.tuples(coeffs, words), max_size=6))
    cuts = draw(st.lists(st.integers(0, 4), max_size=len(terms)))
    terms += [(c, w[cut:]) for (c, w), cut in zip(terms, cuts)]
    return tuple(terms)


@given(expr=nc_exprs(), which=st.integers(0, 3))
@settings(max_examples=150, deadline=None)
@example(expr=((Fraction(1), (("e", 1), ("e", 1))), (Fraction(2), (("e", 1),)), (Fraction(-1), ())), which=3)
@example(expr=((Fraction(1), (("f", 2), ("k", 1))), (Fraction(1), (("f", 2), ("k", 1)))), which=0)
@example(expr=((Fraction(1), (("mode", "e", 0, 1), ("mode", "k+", 2, 1))), (Fraction(3), (("psi_inv",), ("psi",)))),
         which=1)
@example(expr=((Fraction(1), (("t_omega1",), ("braid", 2))), (Fraction(-2), (("tau",), ("mode", "k-", 0, -1)))),
         which=2)
def test_trie_evaluation_matches_word_by_word(dm_edge, expr, which):
    dm, vecs = dm_edge
    b_trie, b_words = WindowBudget(), WindowBudget()
    got = eval_trie(dm, nc_trie(expr), vecs[which], b_trie)
    want = _eval_word_by_word(dm, expr, vecs[which], b_words)
    assert got == want
    assert b_trie.ok() == b_words.ok()


@pytest.mark.parametrize("letter", [("mode", "k+", 1, -1), ("mode", "k-", 2, 1)])
def test_trie_keeps_the_mode_range_check(dm_edge, letter):
    # a Cartan mode outside its sign range is an error of the check's statement,
    # not a zero term: the builders leave such terms out themselves
    dm, vecs = dm_edge
    with pytest.raises(ValueError, match="mode needs"):
        eval_trie(dm, nc_trie(((Fraction(1), (letter,)),)), vecs[0], WindowBudget())


def test_edge_probe_leaves_window_and_words_empty_out(dm_edge):
    # the property above sees invalid budgets and words that stop early
    dm, vecs = dm_edge
    budget = WindowBudget()
    assert dm.km("e", 1, dict(vecs[3]), budget) and not budget.ok()
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


def test_translation_catches_planted_table_faults(poly_two_probes, monkeypatch):
    dm, probes = poly_two_probes
    assert _translation_failures(dm, probes) == 0
    # f_1's first term is a composed word that acts on these probes
    target = omega_images(dm.n, dm.q, dm.d)[("f", 1)]

    with monkeypatch.context() as m:
        m.setattr(dualchecks, "wrap_exponent", lambda kind, j, n: 0)
        assert _translation_failures(dm, probes) > 0

    def flip_one_sign(n, q, d):
        images = omega_images(n, q, d)
        (c, w), *rest = images[("f", 1)]
        images[("f", 1)] = ((-c, w), *rest)
        return images

    with monkeypatch.context() as m:
        m.setattr(dualchecks, "omega_images", flip_one_sign)
        assert _translation_failures(dm, probes) > 0

    nc_trie = dualchecks.nc_trie
    dropped = []

    def drop_one_end(expr):
        # the trie node of f_1's first word loses its end coefficient
        trie = nc_trie(expr)
        if expr == target:
            node = trie
            for sym in reversed(target[0][1]):
                node = node[0][sym]
            dropped.append(node[1].pop())
        return trie

    with monkeypatch.context() as m:
        m.setattr(dualchecks, "nc_trie", drop_one_end)
        assert _translation_failures(dm, probes) > 0
    assert dropped == [target[0][0]]
