"""Straightening, canonical form, and the operator suite of the tensor module."""

import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from itertools import chain, product
from pathlib import Path

import pytest

import toroidal_duality
from toroidal_duality.duality import (
    DualityModule,
    duality_probes,
    dvec_add,
    dvec_to_json,
    nondecreasing_tuples,
    t_on_tensor,
)
from toroidal_duality.hecke import PolynomialModule, UnitModule, WindowExit, apply_expr, apply_word, lt, tij_word, wmul
from toroidal_duality.hecke import vec_scale as dvec_scale
from toroidal_duality.params import specialized_params, symbolic_params
from toroidal_duality.scalars import ONE, sc_inv, sc_mul
from toroidal_duality.series import theta_expand


@pytest.fixture(scope="module")
def dm_unit():
    p = specialized_params(n=3, l=1, q=2, d=2)
    return DualityModule(UnitModule(Fraction(5), Fraction(7), p))


@pytest.fixture(scope="module")
def dm_poly():
    p = specialized_params(n=4, l=2, q=2, d=3)
    return DualityModule(PolynomialModule(p, window=8))


def test_straighten_descent_swap(dm_poly):
    # m (x) v2 (x) v1  ->  q^-1 (m T_1) (x) v1 (x) v2; on a symmetric monomial
    # the module side contributes q^2
    got = dm_poly.straighten({((0, 0), (2, 1)): Fraction(1)})
    assert got == {((0, 0), (1, 2)): Fraction(2)}  # q^-1 q^2 = q = 2


def test_straighten_is_idempotent(dm_poly):
    rng = random.Random(3)
    tuples = nondecreasing_tuples(dm_poly.n, dm_poly.l)
    for _ in range(12):
        raw = {}
        for _ in range(3):
            jt = tuple(rng.randint(1, dm_poly.n + 1) for _ in range(dm_poly.l))
            key = ((rng.randint(-2, 2), rng.randint(-2, 2)), jt)
            dvec_add(raw, [(key, Fraction(rng.randint(-4, 4)))])
        once = dm_poly.straighten(raw)
        twice = dm_poly.straighten(once)
        assert once == twice
        assert all(j == tuple(sorted(j)) for (_, j) in once)


def test_tensor_relation_well_defined(dm_poly):
    # straighten((m T_i) (x) v) == straighten(m (x) T_i v): the defining
    # relation of the tensor product over the finite Hecke algebra
    q = dm_poly.q
    for jt in [(2, 1), (1, 1), (3, 3), (5, 2), (1, 2), (4, 1)]:
        for hkey in [(0, 0), (1, 0), (-1, 2)]:
            lhs = dm_poly.straighten({
                (k, jt): c
                for k, c in apply_word(dm_poly.h, lt("T", 1), {hkey: Fraction(1)}).items()
            })
            rhs_raw = {}
            for jt2, c in t_on_tensor(1, jt, q):
                dvec_add(rhs_raw, [((hkey, jt2), c)])
            assert lhs == dm_poly.straighten(rhs_raw)


def test_repeated_tuple_collapse(dm_poly):
    # (m T_1) (x) v_jj and (q^2 m) (x) v_jj have one canonical form
    for jj in [(1, 1), (3, 3)]:
        for hkey in [(0, 0), (2, -1)]:
            mt = apply_word(dm_poly.h, lt("T", 1), {hkey: Fraction(1)})
            a = dm_poly.straighten({(k, jj): c for k, c in mt.items()})
            b = dm_poly.straighten({(hkey, jj): Fraction(4)})
            assert a == b


def test_sorted_distinct_tuple_unchanged(dm_poly):
    vec = {((0, 0), (1, 3)): Fraction(5)}
    assert dm_poly.straighten(dict(vec)) == vec


def test_weight_action(dm_poly):
    # k_i multiplies by q^(count(i) - count(i+1)); j = (2, 3) at q = 2
    vec = dm_poly.basis_vector((0, 0), (2, 3))
    assert dm_poly.km("k", 1, dict(vec)) == dvec_scale(Fraction(1, 2), vec.items())
    assert dm_poly.km("k", 2, dict(vec)) == vec
    assert dm_poly.km("k", 3, dict(vec)) == dvec_scale(Fraction(2), vec.items())
    assert dm_poly.km("k", 4, dict(vec)) == vec


def test_e_kills_empty_segment(dm_poly):
    vec = dm_poly.basis_vector((0, 0), (1, 3))  # no v_2 to lower for e_1
    assert dm_poly.km("e", 1, dict(vec)) == {}
    assert dm_poly.mode("e", 1, 2, dict(vec)) == {}


def test_finite_action_closed_form(dm_poly):
    # e_i on a sorted tuple: q^(1-t+s) m (1 + sum T_{k,s+1}) (x) v_(first i+1 slot -> i)
    vec = dm_poly.basis_vector((0, 0), (2, 2))
    got = dm_poly.km("e", 1, dict(vec))
    # segments for i=1: r=s=0, t=2: prefactor q^(1-2), T-sum k=1..1
    want_raw = {}
    pref = Fraction(1, 2)
    m0 = {(0, 0): pref}
    dvec_add(want_raw, [(((0, 0), (1, 2)), pref)])
    mt = apply_word(dm_poly.h, lt("T", 1), m0)
    dvec_add(want_raw, [((k, (1, 2)), c) for k, c in mt.items()])
    assert got == dm_poly.straighten(want_raw)


def test_psi_examples(dm_poly):
    n = dm_poly.n
    vec = dm_poly.basis_vector((0, 0), (1, 2))
    assert dm_poly.psi(dict(vec)) == dm_poly.basis_vector((0, 0), (2, 3))


def test_psi_example_l1(dm_unit):
    n = dm_unit.n
    vec = dm_unit.basis_vector((), (n + 1,))
    got = dm_unit.psi(dict(vec))
    # module side picks up X_1^-1, i.e. a^-1 = 1/5
    assert got == dvec_scale(Fraction(1, 5), dm_unit.basis_vector((), (1,)).items())


def test_psi_double_sided_inverse(dm_poly):
    probes = duality_probes(dm_poly, 50, seed=21)
    assert len(probes) == 50
    for pid, vec in probes:
        assert dm_poly.psi_inv(dm_poly.psi(dict(vec))) == vec
        assert dm_poly.psi(dm_poly.psi_inv(dict(vec))) == vec


def test_braid_fixes_trivial_component(dm_poly):
    # zero-weight vector killed by e_i and f_i is fixed by the braid operator
    vec = dm_poly.basis_vector((0, 0), (4, 4))
    i = 1  # segments empty
    assert dm_poly.km("e", i, dict(vec)) == {} and dm_poly.km("f", i, dict(vec)) == {}
    assert dm_poly.braid(i, dict(vec)) == vec


def test_tau_pure_relabel_without_wrap(dm_poly):
    vec = dm_poly.basis_vector((1, 0), (1, 3))
    assert dm_poly.tau(dict(vec)) == dm_poly.basis_vector((1, 0), (2, 4))


def test_affine_action_example(dm_unit):
    # f_{n+1} on m (x) v_{n+1} picks up d m Y (slot count 1 at l = 1)
    n = dm_unit.n
    vec = dm_unit.basis_vector((), (n + 1,))
    got = dm_unit.km("f", n + 1, dict(vec))
    # d * b = 2 * 7
    assert got == dvec_scale(Fraction(14), dm_unit.basis_vector((), (1,)).items())


def test_k_mode_matches_finite(dm_poly):
    probes = duality_probes(dm_poly, 6, seed=2)
    for pid, vec in probes:
        for i in range(1, dm_poly.n + 1):
            assert dm_poly.mode("k+", i, 0, dict(vec)) == dm_poly.km("k", i, dict(vec))
            assert dm_poly.mode("k-", i, 0, dict(vec)) == dm_poly.km("kinv", i, dict(vec))
            assert dm_poly.mode("e", i, 0, dict(vec)) == dm_poly.km("e", i, dict(vec))
            assert dm_poly.mode("f", i, 0, dict(vec)) == dm_poly.km("f", i, dict(vec))


def test_vertex_zero_zero_modes(dm_poly):
    # k_0 acts by the inverse theta-weight, e_0/f_0 move 1 <-> n+1 with X words
    vec = dm_poly.basis_vector((0, 0), (1, 5))
    n = dm_poly.n
    got = dm_poly.mode("k+", 0, 0, dict(vec))
    assert got == dvec_scale(Fraction(1), vec.items())  # #(n+1) - #(1) = 0
    vec2 = dm_poly.basis_vector((0, 0), (5, 5))
    assert dm_poly.mode("k+", 0, 0, dict(vec2)) == dvec_scale(Fraction(4), vec2.items())


def test_mode_requires_signed_window(dm_poly):
    with pytest.raises(ValueError):
        dm_poly.mode("k+", 1, -1, {})
    with pytest.raises(ValueError):
        dm_poly.mode("k-", 1, 1, {})


def test_mode_checks_arguments_before_empty_shortcut(dm_poly):
    # an empty input returns {} only after the arguments were checked
    for i in (0, 1):
        with pytest.raises(ValueError):
            dm_poly.mode("g", i, 0, {})
        assert dm_poly.mode("e", i, 0, {}) == {}
    for bad in (-1, dm_poly.n + 1):
        with pytest.raises(ValueError):
            dm_poly.mode("e", bad, 0, {})
    with pytest.raises(ValueError):
        dm_poly.mode("k+", 0, -1, {})
    with pytest.raises(ValueError):
        dm_poly.mode("k-", 0, 1, {})


def test_mode_columns_are_built_once_and_bad_arguments_raise_every_call():
    dm = DualityModule(PolynomialModule(specialized_params(n=4, l=2, q=2, d=3), window=8))
    vec = dm.basis_vector((0, 0), (1, 2))
    for _ in range(2):  # a rejected column is never stored, so the next call checks it again
        for args in (("g", 1, 0), ("e", dm.n + 1, 0), ("k+", 1, -1), ("k-", 0, 1)):
            with pytest.raises(ValueError):
                dm.mode(*args, vec)
    first = {i: dm.mode("e", i, 2, vec) for i in (0, 1)}
    columns = dict(dm._mode_columns)
    assert set(columns) == {("e", 0, 2), ("e", 1, 2)}
    assert {i: dm.mode("e", i, 2, vec) for i in (0, 1)} == first
    assert all(dm._mode_columns[key] is column for key, column in columns.items())
    # no stored column refers back to the module, so reference counting alone frees it
    ref = weakref.ref(dm)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del dm
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("params", [specialized_params(n=4, l=2, q=2, d=3), symbolic_params(n=4, l=2)],
                         ids=["specialized", "formal"])
def test_mode_applies_the_column_that_linear_applies(params):
    # mode runs the column loop itself on the record it resolves once; at every (kind, i, k) with
    # |k| <= 2 it gives, on the poly probes, what `_linear` gives on a module of its own, in order
    dm, ref = (DualityModule(PolynomialModule(params, window=8)) for _ in range(2))
    probes = duality_probes(dm, 8, 11)
    for kind, ks in (("e", range(-2, 3)), ("f", range(-2, 3)), ("k+", range(3)), ("k-", range(-2, 1))):
        for i in range(dm.n + 1):
            for k in ks:
                if i == 0:
                    tag, basis = ("M0", kind, k), DualityModule._mode0_basis
                elif kind in ("e", "f"):
                    tag, basis = ("M", kind, i, k), DualityModule._efmode_basis
                else:
                    tag, basis = ("M", kind, i, k), DualityModule._kmode_basis
                for _, vec in probes:
                    assert list(dm.mode(kind, i, k, vec).items()) == list(ref._linear(tag, basis, vec).items())
                assert dm._cache[tag] == ref._cache[tag]  # the column stays under its tag


def test_monomial_table_leaves_the_module_free_of_cycles():
    # dm.qd closes over q and d only: a module whose columns and checks have
    # filled its table is still freed by reference counting alone
    from toroidal_duality.dualchecks import intertwining_items, psi_conjugation_items, regression_items
    from toroidal_duality.reports import run_relation_items

    dm = DualityModule(PolynomialModule(specialized_params(n=4, l=2, q=2, d=3), window=8))
    probes = duality_probes(dm, 2, seed=3)
    items = chain(psi_conjugation_items(dm, 1, probes), intertwining_items(dm, probes), regression_items(dm, 1, probes))
    assert all(r.status == "pass" for r in run_relation_items(items))
    assert dm.qd.cache_info().currsize > 10
    del items, probes
    ref = weakref.ref(dm)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del dm
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_filled_letter_program_and_braid_tables_leave_the_hecke_module_free_of_cycles():
    # the letter cache, the program table and the braid scalars hold keys,
    # letters and scalars only: after a sweep has filled them, the Hecke
    # module is freed by reference counting alone
    from toroidal_duality.dualchecks import intertwining_items
    from toroidal_duality.hecke import make_hecke_items, q_presentation_checks
    from toroidal_duality.reports import run_relation_items

    hmod = PolynomialModule(specialized_params(n=4, l=2, q=2, d=3), window=8)
    dm = DualityModule(hmod)
    items = chain(intertwining_items(dm, duality_probes(dm, 2, seed=3)),
                  make_hecke_items(hmod, q_presentation_checks(hmod), [("h000", {(1, 0): ONE})]))
    assert all(r.status == "pass" for r in run_relation_items(items))
    assert hmod._cache and hmod._programs and dm._braid_scales
    del items, dm
    ref = weakref.ref(hmod)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del hmod
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("dm_name", ["dm_unit", "dm_poly"])
def test_km_rejects_vertices_outside_the_diagram(dm_name, request):
    dm = request.getfixturevalue(dm_name)
    hkey = () if dm.h.family == "l1" else (0,) * dm.l
    vec = dm.basis_vector(hkey, (1,) * dm.l)
    for j in (0, dm.n + 2, -1):
        for kind in ("e", "f", "k", "kinv"):
            for v in (vec, {}):
                with pytest.raises(ValueError, match=f"km vertex {j} outside"):
                    dm.km(kind, j, dict(v))
    with pytest.raises(ValueError):
        dm.km("g", 1, dict(vec))


_GUARDS_UNDER_O = """
from fractions import Fraction
from toroidal_duality.duality import DualityModule
from toroidal_duality.hecke import UnitModule
from toroidal_duality.params import specialized_params
from toroidal_duality.qtoroidal import current_relation_items

dm = DualityModule(UnitModule(Fraction(5), Fraction(7), specialized_params(n=3, l=1, q=2, d=2)))
calls = [
    lambda: dm.mode("e", 4, 0, {}),
    lambda: dm.mode("k+", 1, -1, {}),
    lambda: dm.mode("k-", 1, 1, {}),
    lambda: dm.braid(0, {}),
    lambda: dm.km("e", 0, {}),
    lambda: current_relation_items(dm, 0, []),
]
for call in calls:
    try:
        call()
    except ValueError:
        print("ValueError")
    else:
        print("accepted")
print(__debug__)
"""


def test_argument_guards_survive_optimize():
    # python -O strips assert statements; the argument guards must still raise
    src = str(Path(toroidal_duality.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-O", "-c", _GUARDS_UNDER_O], env=env,
                         capture_output=True, text=True, check=True).stdout.split()
    assert out == ["ValueError"] * 6 + ["False"]


def test_probe_coverage(dm_poly):
    probes = duality_probes(dm_poly, 8, seed=11)
    tuples = {jt for _, vec in probes for (_, jt) in vec}
    # every vertex sees a repeated segment among the constant tuples
    for i in range(1, dm_poly.n + 2):
        assert (i, i) in tuples


_COLUMN_MODULES = {
    "l1": lambda: DualityModule(
        UnitModule(Fraction(5), Fraction(7), specialized_params(n=3, l=1, q=2, d=2))),
    "poly": lambda: DualityModule(PolynomialModule(specialized_params(n=4, l=2, q=2, d=3), window=8)),
    "n5l3": lambda: DualityModule(PolynomialModule(specialized_params(n=5, l=3, q=2, d=3), window=7)),
    "formal": lambda: DualityModule(PolynomialModule(symbolic_params(n=4, l=2), window=8)),
}


def _operator_columns(dm, top):
    """Every km and mode call on every straightened basis vector, as canonical lines."""
    n, l = dm.n, dm.l
    hkeys = [()] if dm.h.family == "l1" else [(0,) * l, (1,) + (0,) * (l - 1)]
    calls = [("km", kind, j, None) for kind in ("e", "f", "k", "kinv") for j in range(1, n + 2)]
    calls += [("mode", kind, i, k) for i in range(n + 1)
              for kind, ks in (("e", range(-top, top + 1)), ("f", range(-top, top + 1)),
                               ("k+", range(top + 1)), ("k-", range(-top, 1)))
              for k in ks]
    for hk in hkeys:
        for jt in nondecreasing_tuples(n, l):
            vec = dm.basis_vector(hk, jt)
            if not vec:
                continue
            for op, kind, i, k in calls:
                out = dm.km(kind, i, dict(vec)) if op == "km" else dm.mode(kind, i, k, dict(vec))
                # true: the column stayed in the window, where leaving it would raise
                yield json.dumps([list(hk), list(jt), op, kind, i, k, True, dvec_to_json(out)])


# sha256 of the km (vertices 1..n+1) and mode (vertices 0..n, |k| <= top)
# columns of every straightened basis vector, each with a window flag; the
# formal columns hold LaurentFrac scalars such as 1/(1 + q^2), whose constant
# numerator is written as the Fraction "1"
@pytest.mark.parametrize("name, top, digest", [
    ("l1", 2, "5560f0bd73239dd7e7db169245fa1c3a17f6611cc5c886589f2d65df970bcc31"),
    ("poly", 2, "8ce5d4d416514a9e61d0a42975fbee72200611a4661b8632ac10ebfc4f6be81f"),
    ("n5l3", 2, "9e6fffa7f3e9bde61921620d79ec7a2441f13d76f6dd37d83be1b00c151e3538"),
    ("formal", 1, "556566a839d33bb838b4e7b05399daa40e81d3c95556ba5c4dbc651381640958"),
], ids=["l1", "poly", "n5l3", "formal"])
def test_operator_columns_match_pinned_digest(name, top, digest):
    h = hashlib.sha256()
    for line in _operator_columns(_COLUMN_MODULES[name](), top):
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == digest


# -- k± modes, braid operators and straightening against the constructions they replace --


def _compositions(total, parts):
    if not parts:
        return [()] if total == 0 else []
    return [(first,) + rest for first in range(total + 1) for rest in _compositions(total - first, parts - 1)]


def _kmode_by_compositions(dm, kind, i, k, key):
    """
    The oracle for k±_{i,k} on a basis key: one Y word per composition of |k|
    over the slots holding i or i+1, its coefficient the product of each
    slot's theta coefficient and spectral power (the construction before the
    product was expanded degree by degree).
    """
    hkey, jt = key
    sign = 1 if kind == "k+" else -1
    e, absk = -sign, abs(k)
    factors = []
    for carrier, m, qexp in ((i, 1, dm.n + 2 - i), (i + 1, -1, dm.n - i)):
        coefs = theta_expand(sign * m, absk, dm.q)  # theta_m at zero is theta_-m at infinity
        pows = [dm.qd(qexp * e * r, i * e * r) for r in range(absk + 1)]
        factors += [(p, coefs, pows) for p in range(1, dm.l + 1) if jt[p - 1] == carrier]
    if absk > 0 and not factors:
        return {}
    hv = {}
    for comp in _compositions(absk, len(factors)):
        coeff, word = ONE, ()
        for (p, coefs, pows), r in zip(factors, comp):
            coeff = sc_mul(coeff, sc_mul(coefs[r], pows[r]))
            word += lt("Y", p, e * r) if r else ()
        dvec_add(hv, apply_word(dm.h, word, {hkey: coeff}).items())
    return dm.straighten({(hk, jt): c for hk, c in hv.items()})


def _basis_keys(dm):
    """Every nondecreasing tuple at the module keys (0, 0, ..), (1, 0, ..) and (2, -1, 0, ..)."""
    l = dm.l
    hkeys = [(0,) * l, (1,) + (0,) * (l - 1), (2, -1) + (0,) * (l - 2)]
    return [(hk, jt) for hk in hkeys for jt in nondecreasing_tuples(dm.n, l)]


_POWER_MODULES = {
    "poly": lambda: PolynomialModule(specialized_params(n=4, l=2, q=2, d=3), window=8),
    "poly-formal": lambda: PolynomialModule(symbolic_params(n=4, l=2), window=8),
    "n5l3": lambda: PolynomialModule(specialized_params(n=5, l=3, q=2, d=3), window=8),
    "n5l3-formal": lambda: PolynomialModule(symbolic_params(n=5, l=3), window=8),
}


# window 2 with module keys outside it: a Y letter keeps a key's exponents in
# their range, so only a key outside the window leaves it in a k± column, and
# then only from degree 1 on
_CLIPPED_MODULE = lambda: PolynomialModule(specialized_params(n=4, l=2, q=2, d=3), window=2)


def _kmode_entries(dm, pairs):
    """Fill the k+ and k- columns at every vertex 1..n of each (key, |k|) in the order given; every filled entry."""
    for key, absk in pairs:
        for i in range(1, dm.n + 1):
            dm.mode("k+", i, absk, {key: ONE})
            dm.mode("k-", i, -absk, {key: ONE})
    return {(tag, key): entry for tag, column in dm._cache.items() if tag[:2] in (("M", "k+"), ("M", "k-"))
            for key, entry in column.items()}


def _kmode_exits(dm, pairs):
    """(kind, i, k, key) of every k+ and k- call that left the window, filled as `_kmode_entries` fills."""
    exits = set()
    for key, absk in pairs:
        for i in range(1, dm.n + 1):
            for kind, k in (("k+", absk), ("k-", -absk)):
                try:
                    dm.mode(kind, i, k, {key: ONE})
                except WindowExit:
                    exits.add((kind, i, k, key))
    return exits


@pytest.mark.parametrize("name", [*_POWER_MODULES, "poly-clipped"])
def test_kmode_columns_match_the_per_composition_sum(name):
    make = _CLIPPED_MODULE if name == "poly-clipped" else _POWER_MODULES[name]
    dm, ref = DualityModule(make()), DualityModule(make())
    keys = _basis_keys(dm)
    nonzero = 0
    for key in keys:
        for i in range(1, dm.n + 1):
            for kind, k in [("k+", k) for k in range(4)] + [("k-", -k) for k in range(4)]:
                got = dm.mode(kind, i, k, {key: ONE})
                assert got == _kmode_by_compositions(ref, kind, i, k, key), (key, kind, i, k)
                nonzero += bool(got)
    assert nonzero
    if "formal" in name:  # the fill order concerns the caches, not the scalars
        return
    # every entry is the same whatever the fill order:
    # |k| decreasing per key, then interleaved across keys (each key's theta
    # product made at |k| = 2 and made again at 3); and it equals the entry of
    # a module asked that one |k| only, whose products stop at that degree
    filled = _kmode_entries(dm, [])
    for pairs in ([(key, a) for key in keys for a in (3, 2, 1, 0)],
                  [(key, a) for a in (2, 0, 3, 1) for key in keys]):
        assert _kmode_entries(DualityModule(make()), pairs) == filled
    alone = {}
    for a in range(4):
        alone.update(_kmode_entries(DualityModule(make()), [(key, a) for key in keys]))
    assert alone == filled
    if name == "poly-clipped":
        # on a key outside the window, every column with |k| >= 1 and a slot
        # holding i or i+1 leaves it, in every fill order: nothing is stored.
        # (A k = 0 column there leaves too once a larger |k| has raised the
        # degree its theta product is made to, D >= 1, with one slot or more.
        # No sweep asks a column of such a key: every operator raises before
        # it makes a key outside the window, and
        # `test_smallest_window_sweep_skips_nothing` pins 0 skipped.)
        outside = [(hk, jt) for hk in ((3, 0), (0, -3)) for jt in nondecreasing_tuples(dm.n, dm.l)]
        want = {(kind, i, sign * a, (hk, jt)) for hk, jt in outside for i in range(1, dm.n + 1)
                if i in jt or i + 1 in jt for a in (1, 2, 3) for kind, sign in (("k+", 1), ("k-", -1))}
        orders = ([(key, a) for key in outside for a in (3, 2, 1, 0)],
                  [(key, a) for a in (2, 0, 3, 1) for key in outside],
                  [(key, a) for a in range(4) for key in outside])
        for pairs in orders:
            assert want <= _kmode_exits(DualityModule(make()), pairs)


def _efmode_by_words(dm, kind, i, k, key):
    """
    The oracle for e_{i,k} or f_{i,k} on a basis key: apply_expr of Y_m^-k
    and of each T-chain followed by Y_m^-k on the prefactor times the module
    key, then `place` (the construction before the chain images were kept
    across the modes of one current).
    """
    hkey, jt = key
    r = sum(1 for v in jt if v < i)
    s = r + jt.count(i)
    t = s + jt.count(i + 1)
    e = kind == "e"
    lo, hi = (s, t) if e else (r, s)
    if lo == hi:
        return {}
    m = s + 1 if e else s
    pref = dm.qd(1 - hi + lo - k * (dm.n + 1 - i), -k * i)
    y = lt("Y", m, -k)
    expr = ((ONE, y),) + tuple((ONE, wmul(tij_word(kk, m if e else m - 1), y)) for kk in range(lo + 1, hi))
    hv = apply_expr(dm.h, expr, {hkey: pref})
    j2 = jt[: m - 1] + (i if e else i + 1,) + jt[m:]
    return dm.place([(hv, j2, ONE)])


@pytest.mark.parametrize("name", list(_POWER_MODULES))
def test_ef_mode_columns_match_the_chain_words(name):
    # k increasing on one module; on the poly module also k decreasing on a
    # second, so that a column is made before and after the chain images are.
    # The oracle shares the module's letter and straightening caches only
    orders = [range(-3, 4)] + ([range(3, -4, -1)] if name == "poly" else [])
    moved = 0
    for ks in orders:
        dm = DualityModule(_POWER_MODULES[name]())
        for key in _basis_keys(dm):
            for i in range(1, dm.n + 1):
                for kind in ("e", "f"):
                    for k in ks:
                        got = dm.mode(kind, i, k, {key: ONE})
                        assert got == _efmode_by_words(dm, kind, i, k, key), (key, kind, i, k)
                        moved += bool(got)
    assert moved


def _braid_by_nested_loops(dm, i, key):
    """
    The oracle for Lusztig's T''_i on a basis key of weight k: for each t, r
    and s = r + t + k, e^r f^s e^t made afresh from the key, scaled by
    (-1)^(s+k) q^(s-rt) / ([r]! [s]! [t]!).
    """
    k = dm.weight(i, key[1])

    def qfact(m):
        out = ONE
        for j in range(1, m + 1):
            qint = Fraction(0)
            for t in range(j):
                qint = qint + dm.qd(j - 1 - 2 * t, 0)
            out = sc_mul(out, qint)
        return out

    out = {}
    for t in range(dm.l + 1):
        et = {key: ONE}
        for _ in range(t):
            et = dm.km("e", i, et)
        if not et:
            break
        for r in range(dm.l + 1):
            s = r + t + k
            if s < 0 or s > dm.l:
                continue
            mid = et
            for _ in range(s):
                mid = dm.km("f", i, mid)
            for _ in range(r):
                mid = dm.km("e", i, mid)
            sign = -1 if (s + k) % 2 else 1
            scale = sc_mul(dm.qd(s - r * t, 0), sc_inv(sc_mul(qfact(r), sc_mul(qfact(s), qfact(t)))))
            dvec_add(out, mid.items(), sc_mul(Fraction(sign), scale))
    return out


@pytest.mark.parametrize("name", ["poly", "poly-formal", "n5l3", "q3-after-q2"])
def test_braid_columns_match_the_nested_loops(name):
    # q3-after-q2 fills every braid column of a q = 2 module, then checks a
    # q = 3 module's: each module makes its own braid scalars
    if name == "q3-after-q2":
        first = DualityModule(_POWER_MODULES["poly"]())
        for key in _basis_keys(first):
            for i in range(1, first.n + 1):
                first.braid(i, {key: ONE})
        dm = DualityModule(PolynomialModule(specialized_params(n=4, l=2, q=3, d=5), window=8))
    else:
        dm = DualityModule(_POWER_MODULES[name]())
    moved = 0
    for key in _basis_keys(dm):
        for i in range(1, dm.n + 1):
            got = dm.braid(i, {key: ONE})
            assert got == _braid_by_nested_loops(dm, i, key), (key, i)
            moved += got != dm.straighten({key: ONE})
    assert moved


def _sym_group_words(k):
    """All elements of S_k as reduced words in the generators 1..k-1, each a product of suffix chains."""
    words = [()]
    for m in range(2, k + 1):
        words = [w + tuple(range(m - 1, m - 1 - t, -1)) for w in words for t in range(m)]
    return words


def _straighten_by_words(dm, key):
    """
    The oracle for straightening one (module key, tuple): each descent swap
    is an apply_expr of q^-1 T_p, then the sorted tuple's blocks apply one
    word per element of the product of their symmetric groups, each scaled
    by the inverse of the summed Poincare polynomial sum_w q^(2 l(w)) (the
    construction before the symmetrizer was factored into chain sums).
    """
    hkey, jt = key
    hv = {hkey: ONE}
    while any(a > b for a, b in zip(jt, jt[1:])):
        p = next(p for p in range(1, len(jt)) if jt[p - 1] > jt[p])
        hv = apply_expr(dm.h, ((dm.qd(-1, 0), lt("T", p)),), hv)
        jt = jt[: p - 1] + (jt[p], jt[p - 1]) + jt[p + 1 :]
    block_words, poincare = [], ONE
    for v in sorted(set(jt)):
        start, size = jt.index(v) + 1, jt.count(v)
        if size < 2:
            continue
        words = [tuple(("T", start - 1 + g, 1) for g in w) for w in _sym_group_words(size)]
        block_words.append(words)
        psum = Fraction(0)
        for w in words:
            psum = psum + dm.qd(2 * len(w), 0)
        poincare = sc_mul(poincare, psum)
    if block_words:
        norm = sc_inv(poincare)
        hv = apply_expr(dm.h, tuple((norm, wmul(*combo)) for combo in product(*block_words)), hv)
    return {(hk, jt): c for hk, c in hv.items()}


@pytest.mark.parametrize("name", ["poly", "poly-formal", "n5l3"])
def test_straightening_matches_the_symmetric_group_words(name):
    # every tuple, sorted or not, at the module keys of `_basis_keys`: tuples
    # with descents, with descents and a block of size l - 1 (2 at l = 3), and
    # sorted ones with a block of size l all come up
    dm = DualityModule(_POWER_MODULES[name]())
    hkeys = dict.fromkeys(hk for hk, _ in _basis_keys(dm))
    seen = set()
    for hk in hkeys:
        for jt in product(range(1, dm.n + 2), repeat=dm.l):
            got = dm.straighten({(hk, jt): ONE})
            assert got == _straighten_by_words(dm, (hk, jt)), (hk, jt)
            seen.add((jt != tuple(sorted(jt)), max(jt.count(v) for v in jt)))
    assert {(True, 1), (True, dm.l - 1), (False, dm.l)} <= seen
