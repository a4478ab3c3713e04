"""Certification of the windowed Laurent-monomial module family."""

import itertools
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toroidal_duality import dualchecks
from toroidal_duality.config import load_config
from toroidal_duality.duality import DualityModule
from toroidal_duality.hecke import (
    PolynomialModule,
    RelCheck,
    WindowExit,
    apply_expr,
    apply_letter,
    apply_word,
    conjugation_lemma_checks,
    defining_relation_checks,
    hecke_probes,
    lt,
    make_hecke_items,
    merge_vec,
    p_word,
    q_presentation_checks,
    tij_word,
    winv,
    wmul,
    x0_word,
)
from toroidal_duality.params import specialized_params, symbolic_params
from toroidal_duality.reports import identity, run_relation_items
from toroidal_duality.scalars import ONE, sc_inv, sc_mul, sc_pow


@pytest.fixture(scope="module")
def module():
    return PolynomialModule(specialized_params(n=4, l=2, q=2, d=3), window=8)


def run_suite(mod, checks, probes, allow_skips=False):
    failures = []
    for meta, thunk in make_hecke_items(mod, checks, probes):
        try:
            note = thunk()
        except WindowExit:
            if not allow_skips:
                failures.append((meta, "a probe left the window in a suite that expects none"))
            continue
        if note:
            failures.append((meta, note))
    return failures


def test_construction_guards():
    with pytest.raises(ValueError):
        PolynomialModule(specialized_params(n=3, l=1, q=2, d=2), window=8)


def test_x_is_multiplication(module):
    out = apply_word(module, lt("X", 1), {(0, 0): Fraction(1)})
    assert out == {(1, 0): Fraction(1)}


def test_t_on_symmetric_monomial(module):
    # oracle: on the one-dimensional s_i-fixed line T acts by a scalar, the
    # scalar must be a root of (x + 1)(x - q^2), and the normalization picks
    # the q^2 root (not -1)
    q2 = module.params.q ** 2
    for mu in [(0, 0), (2, 2), (-3, -3)]:
        out = apply_word(module, lt("T", 1), {mu: Fraction(1)})
        assert set(out) == {mu}
        scalar = out[mu]
        assert (scalar + 1) * (scalar - q2) == 0
        assert scalar == q2


def test_t_inverse_word(module):
    rng = random.Random(1)
    for _ in range(10):
        mu = (rng.randint(-4, 4), rng.randint(-4, 4))
        vec = {mu: Fraction(1)}
        assert apply_word(module, wmul(lt("T", 1), lt("T", 1, -1)), vec) == vec


def test_txt_relation_on_random_interior_monomials(module):
    q2 = Fraction(4)
    rng = random.Random(7)
    word = wmul(lt("T", 1), lt("X", 1), lt("T", 1))
    for _ in range(20):
        mu = (rng.randint(-5, 5), rng.randint(-5, 5))
        vec = {mu: Fraction(1)}
        lhs = apply_word(module, word, vec)
        rhs = {k: q2 * c for k, c in apply_word(module, lt("X", 2), vec).items()}
        assert lhs == rhs


def test_q_letter_expands_to_x1_t(module):
    for mu in [(0, 0), (1, -2), (3, 3)]:
        vec = {mu: Fraction(1)}
        assert apply_word(module, lt("Q"), vec) == \
            apply_word(module, wmul(lt("X", 1), lt("T", 1)), vec)


def test_full_relation_suites(module):
    probes = hecke_probes(module, 50, seed=3)
    assert len(probes) >= 50
    checks = (
        defining_relation_checks(module)
        + q_presentation_checks(module)
        + conjugation_lemma_checks(module)
    )
    assert run_suite(module, checks, probes) == []


def test_negative_control_fails():
    bad = PolynomialModule(specialized_params(n=4, l=2, q=2, d=3), window=8,
                           corrupt_t1=True)
    probes = hecke_probes(bad, 10, seed=3)
    failures = run_suite(bad, defining_relation_checks(bad), probes)
    assert any(meta[0] == "defining.t-quad" for meta, _ in failures)


def test_shift_scale_is_pinned_to_x(module):
    # perturbing the derived scale breaks the X_0-Y_1 twist on degree <= 2 monomials
    assert module.xi == module.params.x
    bad = PolynomialModule(specialized_params(n=4, l=2, q=2, d=3), window=8)
    bad.xi = bad.params.x * Fraction(2)
    bad._cache.clear()
    probes = [("h0", {(0, 0): Fraction(1)}), ("h1", {(1, 1): Fraction(1)})]
    twist = [c for c in defining_relation_checks(bad) if c.relation == "defining.xy-twist"]
    assert run_suite(bad, twist, probes) != []


def test_unit_twist_degenerates_to_pure_shift():
    mod = PolynomialModule(specialized_params(n=4, l=2, q=2, d=2), window=8)  # x = 1
    assert mod.xi == Fraction(1)
    out = apply_word(mod, (("W", 0, 1),), {(3, -1): Fraction(1)})
    assert out == {(-1, 3): Fraction(1)}


def test_window_escape_raises_and_stores_nothing(module):
    with pytest.raises(WindowExit) as exc:
        apply_word(module, lt("X", 1), {(8, 0): Fraction(1)})
    assert exc.value.args == (("X", 1, 1), (8, 0)) and (("X", 1, 1), (8, 0)) not in module._cache


@pytest.mark.parametrize("params, window", [
    (specialized_params(n=4, l=2, q=2, d=3), 8),
    (specialized_params(n=5, l=3, q=2, d=3), 3),
], ids=["poly-w8", "n5l3-w3"])
def test_only_x_takes_a_window_key_out(params, window):
    # W permutes a key's exponents and T keeps them between the two it mixes,
    # so T^+-1, W^+-1 and Y_j^e (a program of T and W) keep every window key
    # in the window; X_1 takes the edge key (N, 0, ..) out
    mod = PolynomialModule(params, window)
    l = mod.l
    letters = [("T", i, e) for i in range(1, l) for e in (1, -1)] + [("W", 0, 1), ("W", 0, -1)]
    letters += [("Y", j, e) for j in range(1, l + 1) for a in (1, 2, 3) for e in (a, -a)]
    for key in itertools.product(range(-window, window + 1), repeat=l):
        for letter in letters:
            assert mod.inside(k for k, _ in mod.letter_cached(letter, key))
    edge = (window,) + (0,) * (l - 1)
    with pytest.raises(WindowExit) as exc:
        mod.letter_cached(("X", 1, 1), edge)
    assert exc.value.args == (("X", 1, 1), edge)


_WINDOW_MODULES = {
    "specialized": lambda n, l: PolynomialModule(specialized_params(n=n, l=l, q=2, d=3), window=2),
    "formal": lambda n, l: PolynomialModule(symbolic_params(n=n, l=l), window=2),
    "negative-control": lambda n, l: PolynomialModule(specialized_params(n=n, l=l, q=2, d=3), window=2,
                                                      corrupt_t1=True),
}


@pytest.mark.parametrize("n, l", [(4, 2), (5, 3)], ids=["n4l2", "n5l3"])
@pytest.mark.parametrize("name", list(_WINDOW_MODULES))
def test_the_one_key_window_test_raises_as_the_whole_image_does(name, n, l):
    # letter_cached tests only the key a T, W or X letter moves its key to;
    # it must raise exactly when some key of the atomic image is outside the
    # window, and then store nothing.  The keys fill the box two steps wider
    # than the window, so keys outside it, and X steps from outside back in,
    # are covered
    mod = _WINDOW_MODULES[name](n, l)
    window = mod.window
    letters = [("T", i, e) for i in range(1, l) for e in (1, -1)] + [("W", 0, 1), ("W", 0, -1)]
    letters += [("X", j, e) for j in range(1, l + 1) for e in (1, -1)]
    raised = back_in = 0
    for key in itertools.product(range(-window - 2, window + 3), repeat=l):
        for letter in letters:
            leaves = not mod.inside(k for k, _ in mod._atomic_items(letter, key))
            try:
                mod.letter_cached(letter, key)
            except WindowExit as exc:
                assert leaves and exc.args == (letter, key), (letter, key)
                assert (letter, key) not in mod._cache
                raised += 1
                continue
            assert not leaves, (letter, key)
            back_in += not mod.inside([key])
    assert raised and back_in


def _program_by_definition(mod, letter):
    """
    (coefficient, letters) of Y_j^+-1 or Q^+-1 as defined: Y_1 = W T_{l-1}
    .. T_1, Y_j = q^2 T_{j-1}^-1 Y_{j-1} T_{j-1}^-1, Q = X_1 T_1 .. T_{l-1};
    c w has the inverse c^-1 winv(w).
    """
    kind, idx, exp = letter
    if kind == "Q":
        c, prog = ONE, wmul(lt("X", 1), tij_word(1, mod.l - 1))
    elif idx == 1:
        c, prog = ONE, wmul(lt("W"), tij_word(mod.l - 1, 1))
    else:
        tinv = lt("T", idx - 1, -1)
        c, prog = sc_mul(mod.params.q, mod.params.q), wmul(tinv, lt("Y", idx - 1), tinv)
    return (sc_inv(c), winv(prog)) if exp < 0 else (c, prog)


@pytest.mark.parametrize("params", [
    specialized_params(n=4, l=2, q=2, d=3),
    symbolic_params(n=4, l=2),
    specialized_params(n=5, l=3, q=2, d=3),
    symbolic_params(n=5, l=3),
], ids=["l2", "l2-formal", "l3", "l3-formal"])
def test_programs_are_made_once_per_letter_as_defined(params):
    mod = PolynomialModule(params, window=4)
    made = []
    program_for = mod._program_for
    mod._program_for = lambda letter: made.append(letter) or program_for(letter)
    letters = [("Y", j, e) for j in range(1, mod.l + 1) for e in (1, -1)] + [("Q", 0, 1), ("Q", 0, -1)]
    for key in ((0,) * mod.l, (1,) + (0,) * (mod.l - 1)):
        for letter in letters:
            mod.letter_cached(letter, key)
    assert sorted(made) == sorted(letters) and set(mod._programs) == set(letters)
    for letter in letters:
        assert mod._programs[letter] == _program_by_definition(mod, letter), letter


def test_window_independence_on_trusted_region():
    small = PolynomialModule(specialized_params(n=4, l=2, q=2, d=3), window=8)
    big = PolynomialModule(specialized_params(n=4, l=2, q=2, d=3), window=13)
    word = wmul(x0_word(2), winv(p_word(1, 2)))
    rng = random.Random(11)
    for _ in range(15):
        mu = (rng.randint(-3, 3), rng.randint(-3, 3))
        r1 = apply_word(small, word, {mu: Fraction(1)})
        r2 = apply_word(big, word, {mu: Fraction(1)})
        assert r1 == r2


def test_x0_p_exponent_is_forced():
    # the companion R_p display and the quadratic/cross relations force
    # q^(2r(r-l)); the opposite sign fails on the very first probe
    mod = PolynomialModule(specialized_params(n=4, l=2, q=2, d=3), window=8)
    lhs_word = wmul(x0_word(2), winv(p_word(1, 2)))
    rhs_word = wmul(lt("X", 1), tij_word(1, 1))
    vec = {(0, 0): Fraction(1)}
    lhs = apply_word(mod, lhs_word, vec)
    good = apply_expr(mod, ((sc_pow(mod.params.q, -2), rhs_word),), vec)
    bad = apply_expr(mod, ((sc_pow(mod.params.q, 2), rhs_word),), vec)
    assert lhs == good
    assert lhs != bad


def test_four_strand_suites_cover_t_conjugations():
    # l = 4 exercises the braid relation, the Q T-shift (1 < i < l-1), and
    # both lemmas' T parts (the first lemma needs j - i >= 2)
    mod = PolynomialModule(specialized_params(n=6, l=4, q=2, d=3), window=9)
    probes = hecke_probes(mod, 6, seed=13)
    checks = (
        defining_relation_checks(mod)
        + q_presentation_checks(mod)
        + conjugation_lemma_checks(mod)
    )
    ids = {c.relation for c in checks}
    assert {"defining.t-braid", "defining.t-comm", "defining.xt-comm", "defining.yt-comm",
            "qpres.q-shift-t", "segment.q-conj-t", "segment.p-conj-t"} <= ids
    assert run_suite(mod, checks, probes) == []


def test_declared_displacement_bounds(module):
    # Y and Q move support by at most l + 1 in max norm (measured: <= 1)
    rng = random.Random(5)
    l = module.l
    for _ in range(12):
        mu = (rng.randint(-4, 4), rng.randint(-4, 4))
        base = max(abs(x) for x in mu)
        for letter in [lt("Y", 1), lt("Y", 2), lt("Y", 1, -1), lt("Q"), lt("Q", 0, -1)]:
            out = apply_word(module, letter, {mu: Fraction(1)})
            worst = max(max(abs(x) for x in k) for k in out)
            assert worst <= base + l + 1
        for letter in [lt("X", 1), lt("X", 2, -1)]:
            out = apply_word(module, letter, {mu: Fraction(1)})
            assert max(max(abs(x) for x in k) for k in out) <= base + 1


def test_symbolic_mode_suite():
    mod = PolynomialModule(symbolic_params(n=4, l=2), window=6)
    probes = hecke_probes(mod, 6, seed=5)
    checks = defining_relation_checks(mod) + q_presentation_checks(mod)
    assert run_suite(mod, checks, probes) == []


def test_descriptor_records_construction(module):
    d = module.descriptor()
    assert d["family"] == "polynomial"
    assert d["window"] == 8
    assert d["xi"] == "32/243"
    assert d["corrupt_t1"] is False


def test_probe_outside_the_window_is_refused_at_the_call(module):
    # the word memo trusts its probe, so a probe outside the window raises
    # before any item is made, instead of passing on clipped vectors
    inside, outside = ("h000", {(0, 0): Fraction(1)}), ("h001", {(-9, 0): Fraction(1)})
    checks = conjugation_lemma_checks(module)
    with pytest.raises(ValueError, match="h001 leaves the window 8"):
        make_hecke_items(module, checks, [inside, outside])
    assert run_suite(module, checks, [inside]) == []


def test_hecke_items_run_probe_by_probe(module):
    # the word memo holds one probe's words, so every check of a probe runs
    # before the first check of the next probe
    checks = defining_relation_checks(module)
    probes = hecke_probes(module, 3, seed=0)
    assert len(checks) > 1 and len(probes) == 3
    order = [(meta[3], meta[:2]) for meta, _ in make_hecke_items(module, checks, probes)]
    assert order == [(pid, (chk.relation, chk.indices)) for pid, _ in probes for chk in checks]


def test_memo_shares_words_between_hecke_thunks(monkeypatch, module):
    # a second thunk on the same probe with the same words applies no letter
    mod = PolynomialModule(module.params, window=8)
    checks = [c for c in q_presentation_checks(mod) if c.relation == "qpres.q-wrap-y"]
    probes = hecke_probes(mod, 1, seed=0)
    first, second = (thunk for _ in range(2) for _, thunk in make_hecke_items(mod, checks, probes))
    calls = []
    real = PolynomialModule.letter_cached

    def counting(self, letter, key):
        calls.append(letter)
        return real(self, letter, key)

    monkeypatch.setattr(PolynomialModule, "letter_cached", counting)
    result = first()
    assert calls and result == ""
    calls.clear()
    assert second() == result and not calls


# every letter at l = 2, Y and Q with exponents up to 2 in size
hecke_letters = st.one_of(
    st.tuples(st.just("T"), st.just(1), st.sampled_from((1, -1))),
    st.tuples(st.just("X"), st.integers(1, 2), st.sampled_from((1, -1))),
    st.tuples(st.just("Y"), st.integers(1, 2), st.sampled_from((1, -1, 2, -2))),
    st.tuples(st.just("Q"), st.just(0), st.sampled_from((1, -1, 2, -2))),
    st.tuples(st.just("W"), st.just(0), st.sampled_from((1, -1))),
)
hecke_words = st.lists(hecke_letters, max_size=4).map(tuple)
hecke_exprs = st.lists(st.tuples(st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3)),
                                 hecke_words), max_size=4).map(tuple)


@st.composite
def hecke_runs(draw):
    """(probe index, lhs, rhs) in right-module order; later words extend earlier ones, which act first."""
    run = []
    for _ in range(draw(st.integers(1, 4))):
        lhs, rhs = draw(hecke_exprs), draw(hecke_exprs)
        if run:
            lhs += tuple((c, w + draw(hecke_words)) for c, w in draw(st.sampled_from(run))[1])
        run.append((draw(st.integers(0, 3)), lhs, rhs))
    return run


@given(window=st.integers(2, 3), run=hecke_runs())
@settings(max_examples=60, deadline=None)
# Q^-2 leaves the window from the edge probe, and a later word extends Y^2
@example(window=2, run=[(1, ((Fraction(1), (("Y", 2, 2),)),), ((Fraction(1), (("Q", 0, -2),)),)),
                        (1, ((Fraction(2), (("Y", 2, 2), ("W", 0, 1))),), ((Fraction(-1), ()),))])
def test_hecke_word_memo_matches_apply_expr(window, run):
    # one module walks the memo for the whole run, so later checks find words
    # that earlier ones put there; a second module evaluates word by word
    params = specialized_params(n=4, l=2, q=2, d=3)
    ops, ref = (PolynomialModule(params, window) for _ in range(2))
    w = window
    probes = [{(0, 0): Fraction(1)}, {(w, -w): Fraction(1)},
              {(w, 0): Fraction(1), (-1, 1): Fraction(2)}, {(1, w): Fraction(-1), (0, -w): Fraction(3)}]
    for which, lhs, rhs in run:
        vec = probes[which]
        # the exact residual: right-module words list their letters in acting order
        residual = lhs + tuple((-c, word) for c, word in rhs)
        (_, thunk), = make_hecke_items(ops, [RelCheck("r", (), residual)], [("p", vec)])
        try:
            want = apply_expr(ref, lhs, vec)
            merge_vec(want, apply_expr(ref, rhs, vec).items(), Fraction(-1))
        except WindowExit as exc:  # the check leaves the window at the same letter and key
            for check in (partial(identity, vec, ops, residual), thunk):
                with pytest.raises(WindowExit) as left:
                    check()
                assert str(left.value) == str(exc)
            continue
        assert identity(vec, ops, residual + ((Fraction(-1), lambda: want),)) == ""
        # the item make_hecke_items states from the residual
        assert thunk() == (f"residual has {len(want)} term(s); lead key {min(want)}" if want else "")


# -- Y and Q powers, stepped from the power below --------------------------------


def _y_atom_program(mod, j):
    """
    (coefficient, atoms) of Y_j: Y_1 = W T_{l-1} .. T_1 and
    Y_j = q^2 T_{j-1}^-1 Y_{j-1} T_{j-1}^-1 expanded down to atoms (how Y_j
    was built before it was read from Y_{j-1}).
    """
    q2 = sc_mul(mod.params.q, mod.params.q)
    c, prog = Fraction(1), (("W", 0, 1),) + tuple(("T", i, 1) for i in range(mod.l - 1, 0, -1))
    for i in range(1, j):
        c, prog = sc_mul(q2, c), (("T", i, -1),) + prog + (("T", i, -1),)
    return c, prog


def _atom_program_power(mod, letter, key):
    """
    The oracle: a Y or Q letter as its atom program run |e| times on
    c^|e| key, c the program's coefficient (how powers were built before
    they were stepped).
    """
    kind, idx, exp = letter
    if kind == "Y":
        c, prog = _y_atom_program(mod, idx)
    else:
        c, prog = Fraction(1), (("X", 1, 1),) + tuple(("T", i, 1) for i in range(1, mod.l))
    if exp < 0:
        c, prog = sc_inv(c), winv(prog)
    vec = {key: sc_pow(c, abs(exp))}
    for atom in prog * abs(exp):
        vec = apply_letter(mod, atom, vec)
    return vec


@st.composite
def stepped_power_runs(draw):
    """
    (window, l, [(letter, key)]) on random window keys: Y_j^e or Q^e with
    2 <= |e| <= 4, and Y_j^e with j >= 2 and |e| = 1.
    """
    window, l = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    exps = st.integers(2, 4).flatmap(lambda a: st.sampled_from((a, -a)))
    letters = st.one_of(st.tuples(st.just("Y"), st.integers(1, l), exps),
                        st.tuples(st.just("Q"), st.just(0), exps),
                        st.tuples(st.just("Y"), st.integers(2, l), st.sampled_from((1, -1))))
    keys = st.tuples(*[st.integers(-window, window)] * l)
    return window, l, draw(st.lists(st.tuples(letters, keys), min_size=1, max_size=6))


@given(run=stepped_power_runs())
@settings(max_examples=40, deadline=None)
def test_stepped_powers_match_the_atom_program(run):
    # one module serves the whole run, so later powers step from entries that
    # earlier ones made, and Y_j from the Y_{j-1} entries; the oracle runs
    # atoms only, on a module of its own
    window, l, pairs = run
    params = specialized_params(n=l + 2, l=l, q=2, d=3)
    mod, ref = PolynomialModule(params, window), PolynomialModule(params, window)
    for letter, key in pairs:
        try:
            want = _atom_program_power(ref, letter, key)
        except WindowExit:  # then the stepped power leaves the window too
            with pytest.raises(WindowExit):
                mod.letter_cached(letter, key)
            continue
        items = mod.letter_cached(letter, key)
        assert list(items) == sorted(items) and dict(items) == want


def test_stepped_powers_reuse_the_power_below(module):
    mod = PolynomialModule(module.params, window=8)
    assert mod.letter_cached(("Y", 2, -3), (1, 0))
    assert {(letter, key) for letter, key in mod._cache if letter[0] == "Y"} >= {
        (("Y", 2, -2), (1, 0)), (("Y", 2, -1), (1, 0))}
    assert not any(letter[0] == "Y" and abs(letter[2]) > 3 for letter, _ in mod._cache)


def test_zero_exponent_is_the_identity_and_is_not_stored(module):
    mod = PolynomialModule(module.params, window=8)
    for letter in (("Y", 1, 0), ("Y", 2, 0), ("Q", 0, 0)):
        assert mod.letter_cached(letter, (3, -1)) == (((3, -1), ONE),)
    assert apply_word(mod, (("Y", 2, 0),), {(0, 0): Fraction(5)}) == {(0, 0): Fraction(5)}
    assert not mod._cache


# -- every stated relation bites ---------------------------------------------------


def _negate_last_term(chk):
    *head, (c, word) = chk.residual
    return chk._replace(residual=(*head, (-c, word)))


@pytest.mark.parametrize("preset, overrides, statements", [
    ("poly", {}, 19),
    ("poly", {"n": 5, "l": 3, "window": 7}, 49),
    ("l1", {}, 2),
], ids=["poly", "n5-l3", "l1"])
def test_every_hecke_relation_bites(monkeypatch, preset, overrides, statements):
    # each statement of the three suites and of the recon.y-* shifts, alone
    # with the last term of its residual negated, must fail a check of its id
    hmod = load_config(preset=preset, overrides=overrides).build_hecke_module()
    checks = defining_relation_checks(hmod) + q_presentation_checks(hmod) + conjugation_lemma_checks(hmod)
    assert len(checks) == statements
    shifts = []  # reconstruction_items hands its two shifts to make_hecke_items
    monkeypatch.setattr(dualchecks, "make_hecke_items", lambda module, stated, probes: shifts.extend(stated) or ())
    dualchecks.reconstruction_items(DualityModule(hmod), 1, [])
    assert [s.relation for s in shifts] == ["recon.y-wrap", "recon.y-shift"][:hmod.l]
    probes = hecke_probes(hmod, 3, seed=11)
    assert all(thunk() == "" for _, thunk in make_hecke_items(hmod, checks + shifts, probes))
    missed = []
    for chk in checks + shifts:
        reports = run_relation_items(make_hecke_items(hmod, [_negate_last_term(chk)], probes))
        if not any(r.status == "fail" for r in reports):
            missed.append((chk.relation, chk.indices))
    assert missed == []
