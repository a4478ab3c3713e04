"""The canonical line writer against the reference encoding of a report."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from toroidal_duality.reports import RelationReport, dumps_canonical, write_jsonl

# quotes, backslashes, control characters and non-ASCII, among any characters
TEXT = st.text(st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7fé€\ud800\U0001d52e'),
                         st.characters()), max_size=8)
# True == 1 and False == 0, yet they encode as true and false: a memo must not share them
ELEMENT = st.sampled_from([0, 1, True, False, -1, 2, -(10 ** 20)])
INTS = st.lists(ELEMENT, max_size=3).map(tuple)
REPORT = st.builds(RelationReport, TEXT, INTS, INTS, TEXT, st.booleans(), st.booleans(),
                   st.floats(0, 1), TEXT)

# pass (its note is left out), fail and skip with notes, and (1,) beside (True,)
ALL_STATUSES = [
    RelationReport("2.1.1", (1,), (0, 1), "p000", True, True, 0.0, "not written"),
    RelationReport("2.1.1", (True,), (False, True), "p000", False, True, 0.0, 'fail "note"\\\n'),
    RelationReport("2.1.é", (1,), (True,), "p\x01", True, False, 0.0, "skip €"),
    RelationReport("2.1.1", (), (), "p000", False, True),
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
