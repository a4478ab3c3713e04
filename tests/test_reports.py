"""The canonical line writer and the summary against reference recounts of the reports, and a check that leaves the window."""

from collections import Counter
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toroidal_duality.hecke import PolynomialModule, WindowExit, lt, wmul
from toroidal_duality.params import specialized_params
from toroidal_duality.qtoroidal import level_items
from toroidal_duality.reports import (
    MINUS_ONE, ONE, RelationReport, dumps_canonical, identity, run_relation_items, summarize, write_jsonl,
)

# quotes, backslashes, control characters and non-ASCII, among any characters
TEXT = st.text(st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7fé€\ud800\U0001d52e'),
                         st.characters()), max_size=8)
# True == 1 and False == 0, yet they encode as true and false: a memo must not share them
ELEMENT = st.sampled_from([0, 1, True, False, -1, 2, -(10 ** 20)])
INTS = st.lists(ELEMENT, max_size=3).map(tuple)
STATUS = st.sampled_from(("pass", "fail", "skip"))
REPORT = st.builds(RelationReport, TEXT, INTS, INTS, TEXT, STATUS, st.floats(0, 1), TEXT)

# pass (its note is left out), fail and skip with notes, and (1,) beside (True,)
ALL_STATUSES = [
    RelationReport("2.1.1", (1,), (0, 1), "p000", "pass", 0.0, "not written"),
    RelationReport("2.1.1", (True,), (False, True), "p000", "fail", 0.0, 'fail "note"\\\n'),
    RelationReport("2.1.é", (1,), (True,), "p\x01", "skip", 0.0, "skip €"),
    RelationReport("2.1.1", (), (), "p000", "fail"),
]


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("writer") / "stream.jsonl"


@given(st.lists(REPORT, max_size=12))
@example(ALL_STATUSES)
@example(ALL_STATUSES[::-1])
def test_writer_matches_the_reference_encoding(path, reports):
    write_jsonl(path, reports)
    want = "".join(dumps_canonical(r.to_json_obj()) + "\n" for r in reports)
    assert path.read_bytes() == want.encode("utf-8")


# pass, fail and skip records spread over several relations, in no order
SUMMARY_REPORT = st.builds(RelationReport, st.sampled_from(["2.1.1", "2.1.2", "braid.e", "recon.t"]),
                           st.just(()), st.just(()), st.sampled_from(["p000", "p001"]), STATUS)


@given(st.lists(SUMMARY_REPORT, max_size=30))
@settings(max_examples=50)
@example(ALL_STATUSES)
@example([])
def test_summary_matches_a_naive_recount(reports):
    echo = {"target": "toroidal", "seed": 11}
    statuses = [r.status for r in reports]
    relations = sorted({r.relation for r in reports})
    per_relation = {rel: {s: sum(r.relation == rel and r.status == s for r in reports)
                          for s in ("pass", "fail", "skip")} for rel in relations}
    totals = {"checked": len(reports), "passed": statuses.count("pass"),
              "failed": statuses.count("fail"), "skipped": statuses.count("skip")}
    worst = {rel: "fail" if c["fail"] else "skip" if c["skip"] else "pass" for rel, c in per_relation.items()}
    status = "fail" if "fail" in statuses else "warn" if "skip" in statuses else "pass"
    summary = summarize(reports, echo)
    assert summary["totals"] == totals
    assert summary["per_relation"] == per_relation and list(summary["per_relation"]) == relations
    assert summary["worst"] == worst and list(summary["worst"]) == relations
    assert summary["status"] == status
    assert dumps_canonical(summary) == dumps_canonical({
        "schema": "sweep-summary@1", "config": echo, "totals": totals,
        "per_relation": per_relation, "worst": worst, "status": status})


@given(st.lists(REPORT, max_size=30))
@settings(max_examples=50)
@example(ALL_STATUSES)
def test_summary_tallies_each_report_status(reports):
    tally = Counter((r.relation, r.status) for r in reports)
    summary = summarize(reports, {})
    got = {(rel, status): count for rel, counts in summary["per_relation"].items()
           for status, count in counts.items() if count}
    assert got == tally
    statuses = Counter(r.status for r in reports)
    assert summary["totals"] == {"checked": len(reports), "passed": statuses["pass"],
                                 "failed": statuses["fail"], "skipped": statuses["skip"]}


class _Stub:
    """Letters ("keep",) and ("leave",): the identity, and a step out of the window."""

    def __init__(self):
        self.leaves = 0

    def keep(self, vec):
        return dict(vec)

    def leave(self, vec):
        self.leaves += 1
        raise WindowExit(("X", 1, 1), (2, 0))


VEC = {"v": ONE}
KEEP, LESS_KEEP = (ONE, (("keep",),)), (MINUS_ONE, (("keep",),))
NOTE = "letter ('X', 1, 1) takes key (2, 0) out of the window"


def _memo_letters(node):
    """Every letter with a node under `node` in a word memo."""
    kids = node[1] or {}
    return set(kids).union(*(_memo_letters(child) for child in kids.values() if child))


def _leave_by_closed_form():
    raise WindowExit(("X", 1, 1), (2, 0))


@pytest.mark.parametrize("expr", [
    (KEEP, (MINUS_ONE, _leave_by_closed_form)),  # a closed-form term leaves the window
    ((ONE, (("leave",), ("keep",))),),  # the first letter of a word leaves
    ((ONE, (("keep",), ("leave",))), LESS_KEEP),  # a later letter leaves, after a stored node
], ids=["closed-form", "empty-leaf", "nonempty-node"])
def test_a_check_outside_the_window_is_not_budget_valid(expr):
    ops = _Stub()
    item = (("2.1.1", (), (), "p000"), partial(identity, VEC, ops, expr))
    reports = run_relation_items([item, item])  # again from the filled memo
    assert [(r.status, r.note) for r in reports] == [("skip", NOTE)] * 2
    assert [r.to_json_obj()["budget_valid"] for r in reports] == [False] * 2
    # no node holds the letter that left: it ran again on the second call
    assert ("leave",) not in _memo_letters(ops._word_memo)
    assert ops.leaves == (0 if callable(expr[-1][1]) else 2)
    assert identity(VEC, _Stub(), (KEEP, LESS_KEEP)) == ""


def test_an_x_word_at_the_window_edge_is_a_skip():
    # X_1 takes the edge key (3, 0) of the window [-3, 3]^2 out of it
    module = PolynomialModule(specialized_params(n=4, l=2, q=2, d=3), window=3)
    edge = {(3, 0): ONE}
    residual = ((ONE, wmul(lt("X", 1), lt("X", 1, -1))), (MINUS_ONE, ()))
    note = "letter ('X', 1, 1) takes key (3, 0) out of the window"
    with pytest.raises(WindowExit) as left:
        identity(edge, module, residual)
    assert str(left.value) == note
    report, = run_relation_items([(("defining.x", (), (), "h000"), partial(identity, edge, module, residual))])
    assert report.status == "skip" and report.to_json_obj()["note"] == note


class _LeavingModule:
    """A module stub whose weights leave the window, for the level check."""

    n, l = 3, 1

    def weight(self, i, jt):
        raise WindowExit(("X", 1, 1), (2, 0))


def test_a_window_exit_from_any_thunk_is_one_skip():
    # the runner makes the skip, so a thunk other than `identity` that leaves
    # the window is one skip report too, and the items after it still run
    def leave():
        raise WindowExit(("X", 1, 1), (2, 0))

    items = [*level_items(_LeavingModule(), [("p000", {((), (1,)): ONE})]),
             (("stub", (), (), "p001"), leave), (("stub", (), (), "p002"), lambda: ""),
             (("stub", (), (), "p003"), lambda: "off by one")]
    reports = run_relation_items(items)
    assert [(r.relation, r.probe, r.status, r.note) for r in reports] == [
        ("level.weights", "p000", "skip", NOTE), ("stub", "p001", "skip", NOTE),
        ("stub", "p002", "pass", ""), ("stub", "p003", "fail", "off by one")]
