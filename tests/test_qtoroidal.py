"""Cartan data, cleared-form soundness, and the generic relation checkers."""

from fractions import Fraction

import pytest

from toroidal_duality.duality import DualityModule, duality_probes, dvec_add
from toroidal_duality.hecke import UnitModule
from toroidal_duality.params import specialized_params
from toroidal_duality.qtoroidal import (
    CartanData,
    central_charge_items,
    current_relation_items,
    integrability_items,
    level_items,
    level_weight_set,
)
from toroidal_duality.reports import run_relation_items
from toroidal_duality.series import theta_expand


@pytest.fixture(scope="module")
def dm():
    p = specialized_params(n=3, l=1, q=2, d=2)
    return DualityModule(UnitModule(Fraction(5), Fraction(7), p))


def test_cartan_entries():
    c = CartanData(4)
    assert c.a(0, 0) == 2
    assert c.a(0, 4) == -1  # corner wrap
    assert c.a(0, 2) == 0
    assert c.m(0, 1) == -1 and c.m(1, 0) == 1
    assert c.m(0, 4) == 1 and c.m(4, 0) == -1
    assert c.m(2, 2) == 0
    for i in range(5):
        for j in range(5):
            assert c.a(i, j) == c.a(j, i)
            assert c.m(i, j) == -c.m(j, i)


def test_items_of_one_vertex_pair_share_their_indices(dm):
    # one (i, j) key tuple per vertex pair, however many items and relations use it
    probes = duality_probes(dm, 1, seed=3)
    keys = [meta for meta, _ in current_relation_items(dm, 1, probes)]
    by_pair = {}
    for relation, indices, modes, probe in keys:
        by_pair.setdefault(indices, set()).add(id(indices))
    assert len(by_pair) == (dm.n + 1) ** 2
    assert all(len(objects) == 1 for objects in by_pair.values())
    relations = {pair: {relation for relation, indices, _, _ in keys if indices == pair} for pair in ((1, 1), (1, 2))}
    assert {"2.1.1-unit", "2.1.1", "2.1.5"} <= relations[1, 1] and {"2.1.5", "2.1.8"} <= relations[1, 2]


def test_cartan_guards():
    with pytest.raises(ValueError):
        CartanData(1)
    with pytest.raises(IndexError):
        CartanData(3).a(0, 4)


def test_cleared_form_matches_series_identity(dm):
    # spot check: the k+ e exchange (vertex pair i = j, a = 2, m = 0) as a
    # truncated double series with the at-infinity multiplier expansion,
    #   k+(z) e(w) = theta_2(z/w) e(w) k+(z):
    # coefficient of z^-A w^-B forces
    #   kappa_A e_B = sum_{r<=A} c_r e_{B+r} kappa_{A-r}
    K = 3
    i = 1
    coeffs = theta_expand(2, K, dm.q)
    probes = duality_probes(dm, 4, seed=9)
    for pid, vec in probes:
        for A in range(0, K + 1):
            for B in range(-K, K + 1):
                lhs = dm.mode("k+", i, A, dm.mode("e", i, B, dict(vec)))
                rhs = {}
                for r in range(A + 1):
                    part = dm.mode("e", i, B + r, dm.mode("k+", i, A - r, dict(vec)))
                    dvec_add(rhs, part.items(), coeffs[r])
                assert lhs == rhs, (pid, A, B)


def _dense_matrix(dm, op):
    """4x4 matrix of an operator on the l = 1 module, columns indexed by v_j."""
    dim = dm.n + 1
    cols = []
    for j in range(1, dim + 1):
        out = op(dm.basis_vector((), (j,)))
        col = [Fraction(0)] * dim
        for ((_, jt), c) in out.items():
            col[jt[0] - 1] = c
        cols.append(col)
    return [[cols[j][i] for j in range(dim)] for i in range(dim)]


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _matsub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _matscale(c, a):
    return [[c * x for x in row] for row in a]


def test_2_1_5_dense_matrix_oracle(dm):
    # independent route: realize every mode operator as an exact 4x4 matrix
    # and verify the e-f exchange by matrix algebra, i = j, |r|,|s| <= 3
    q = dm.q
    dim = dm.n + 1
    zero = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dm.n + 1):
        for r in range(-3, 4):
            for s in range(-3, 4):
                E = _dense_matrix(dm, lambda v, i=i, r=r: dm.mode("e", i, r, v))
                F = _dense_matrix(dm, lambda v, i=i, s=s: dm.mode("f", i, s, v))
                lhs = _matscale(q - 1 / q, _matsub(_matmul(E, F), _matmul(F, E)))
                h = r + s
                rhs = zero
                if h >= 0:
                    rhs = _dense_matrix(dm, lambda v, i=i, h=h: dm.mode("k+", i, h, v))
                if h <= 0:
                    km = _dense_matrix(dm, lambda v, i=i, h=h: dm.mode("k-", i, h, v))
                    rhs = _matsub(rhs, km)
                assert _matsub(lhs, rhs) == zero, (i, r, s)


def test_nilpotency_dense_matrix_oracle(dm):
    # e_{i,k}^2 = 0 as an exact matrix square on the 4-dimensional module
    dim = dm.n + 1
    zero = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dm.n + 1):
        for k in range(-3, 4):
            E = _dense_matrix(dm, lambda v, i=i, k=k: dm.mode("e", i, k, v))
            F = _dense_matrix(dm, lambda v, i=i, k=k: dm.mode("f", i, k, v))
            assert _matmul(E, E) == zero
            assert _matmul(F, F) == zero


def test_full_sweep_passes(dm):
    probes = duality_probes(dm, 5, seed=11)
    reports = run_relation_items(current_relation_items(dm, 2, probes))
    assert all(r.status == "pass" for r in reports)
    ids = {r.relation for r in reports}
    assert {f"2.1.{k}" for k in range(1, 10)} <= ids


def test_mode_window_guard(dm):
    with pytest.raises(ValueError):
        current_relation_items(dm, 0, [])


def test_perturbed_operator_is_caught(dm):
    # scaling one mode operator by 2 must produce at least one nonzero residual
    class Perturbed:
        def __init__(self, inner):
            self.inner = inner
            self.params, self.n, self.l = inner.params, inner.n, inner.l
            self.q, self.qd = inner.q, inner.qd
            self.weight = inner.weight

        def mode(self, kind, i, k, vec):
            out = self.inner.mode(kind, i, k, vec)
            if kind == "e" and i == 1 and k == 0:
                return {key: Fraction(2) * c for key, c in out.items()}
            return out

    probes = duality_probes(dm, 3, seed=1)
    reports = run_relation_items(current_relation_items(Perturbed(dm), 1, probes))
    assert any(r.status == "fail" for r in reports)


class _DoubledE10:
    """A wrapper of `inner` with e_{1,0} scaled by 2, as in the test above."""

    def __init__(self, inner):
        self.inner = inner
        self.params, self.n, self.l = inner.params, inner.n, inner.l
        self.q, self.qd = inner.q, inner.qd
        self.weight = inner.weight

    def mode(self, kind, i, k, vec):
        out = self.inner.mode(kind, i, k, vec)
        return {key: Fraction(2) * c for key, c in out.items()} if (kind, i, k) == ("e", 1, 0) else out


def test_filled_memo_stays_with_its_operators(dm):
    # the word memo belongs to the ops object, never to the probe: filling
    # dm's memo first must not hide the wrapper's perturbed operator
    probes = duality_probes(dm, 3, seed=1)
    assert all(r.status == "pass" for r in run_relation_items(current_relation_items(dm, 1, probes)))
    reports = run_relation_items(current_relation_items(_DoubledE10(dm), 1, probes))
    assert any(r.status == "fail" for r in reports)


def test_memo_survives_recycled_probe_ids(dm):
    # probe dicts made and dropped in a loop would take each other's ids if
    # the memo let them go; each check must see its own vector, as on a
    # fresh module
    contents = [vec for _, vec in duality_probes(dm, 4, seed=2)]
    want = [[thunk() for _, thunk in integrability_items(DualityModule(dm.h), 1, [("p", vec)])]
            for vec in contents]
    assert len({tuple(sorted(vec.items())) for vec in contents}) == 4
    for turn in range(24):
        items = integrability_items(dm, 1, [("p", dict(contents[turn % 4]))])
        assert [thunk() for _, thunk in items] == want[turn % 4]
        del items


def test_integrability_and_charge_and_level(dm):
    probes = duality_probes(dm, 5, seed=11)
    items = (
        list(integrability_items(dm, 2, probes))
        + list(central_charge_items(dm, probes))
        + list(level_items(dm, probes))
    )
    reports = run_relation_items(items)
    assert all(r.status == "pass" for r in reports)


def test_nilpotency_order(dm):
    # e_{i,k} squares to zero on the l = 1 family
    probes = duality_probes(dm, 4, seed=4)
    for pid, vec in probes:
        for i in range(dm.n + 1):
            for k in (-1, 0, 2):
                once = dm.mode("e", i, k, dict(vec))
                assert dm.mode("e", i, k, once) == {}


def test_level_weight_set_small():
    weights = level_weight_set(3, 1)
    assert weights == {(1, 0, 0), (-1, 1, 0), (0, -1, 1), (0, 0, -1)}
    assert all(max(abs(x) for x in w) <= 2 for w in level_weight_set(3, 2))


def test_level_flags_foreign_weight(dm):
    class Lying:
        n, l = dm.n, dm.l

        def weight(self, i, jt):
            return dm.l + 1  # impossible in V^(x)l

    items = level_items(Lying(), [("p0", {((), (1,)): Fraction(1)})])
    (_, thunk), = items
    assert "foreign" in thunk()


def test_symmetry_of_residual_sets(dm):
    # swapping (i, z) <-> (j, w) in the 2.1.6-cleared sweep yields the same outcomes
    probes = duality_probes(dm, 3, seed=5)
    reports = run_relation_items(current_relation_items(dm, 1, probes))
    ee = {(r.indices, r.modes): r.status for r in reports if r.relation == "2.1.6"}
    for (idx, modes), status in ee.items():
        i, j = idx
        mirrored = ee.get(((j, i), modes))
        assert mirrored == status
