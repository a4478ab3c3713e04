"""
Every check thunk evaluates its own instance.  A thunk that bound a loop
variable late would check the last vertex pair for every item and still
pass, leaving the report stream byte-identical; so watch which vertices the
operators are called at, directly from each thunk.
"""

import pytest

from toroidal_duality.config import load_config
from toroidal_duality.dualchecks import intertwining_items, psi_conjugation_items
from toroidal_duality.duality import DualityModule, duality_probes
from toroidal_duality.qtoroidal import current_relation_items


@pytest.fixture
def l1_module():
    cfg = load_config(preset="l1", env={})
    dmod = DualityModule(cfg.build_hecke_module())
    return dmod, duality_probes(dmod, 2, seed=cfg.seed)


def _top_level_vertices(monkeypatch, ops):
    """
    Wrap DualityModule methods, `ops` mapping a name to the position of its
    vertex argument (None: only nest).  Returns the list that collects the
    vertex of every call not made from inside another wrapped call.
    """
    seen = []
    depth = [0]
    for name, pos in ops.items():
        def wrapper(self, *args, real=getattr(DualityModule, name), pos=pos):
            if depth[0] == 0 and pos is not None:
                seen.append(args[pos])
            depth[0] += 1
            try:
                return real(self, *args)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(DualityModule, name, wrapper)
    return seen


def _assert_each_thunk_visits_its_indices(items, seen):
    assert items
    for meta, thunk in items:
        seen.clear()
        thunk()
        assert set(meta[1]) <= set(seen), meta


def test_current_relation_thunks_bind_their_vertices(monkeypatch, l1_module):
    dmod, probes = l1_module
    items = current_relation_items(dmod, 1, probes)
    seen = _top_level_vertices(monkeypatch, {"mode": 1})
    _assert_each_thunk_visits_its_indices(items, seen)


def test_intertwining_thunks_bind_their_vertices(monkeypatch, l1_module):
    dmod, probes = l1_module
    items = intertwining_items(dmod, probes)
    seen = _top_level_vertices(
        monkeypatch, {"km": 1, "braid": 0, "tau": None, "t_omega1": None}
    )
    _assert_each_thunk_visits_its_indices(items, seen)


def test_psi_conjugation_thunks_bind_their_vertices(monkeypatch, l1_module):
    dmod, probes = l1_module
    items = psi_conjugation_items(dmod, 1, probes)
    seen = _top_level_vertices(monkeypatch, {"mode": 1, "psi": None, "psi_inv": None})
    _assert_each_thunk_visits_its_indices(items, seen)
