"""
Relation reports, the one way to state a check, and the deterministic
check runner.

A check item is ((relation, indices, modes, probe), thunk) where the thunk
returns its failure note, or "" when every residual is zero, and raises
when an evaluation leaves the lattice window.  The runner is the one place
a status is made: "pass" for "", "fail" for a note, and "skip" for a
window exit, whose text, naming the letter and the module key, is the
note.  Item builders return lazy iterables: each item is made as the
runner takes it and dropped once its report exists, so a sweep never holds
all its items.  Every identity check is stated as data: its thunk is
partial(identity, vec, ops, *residuals), each residual lhs - rhs a tuple of
signed (coeff, word) terms, a closed-form display entering as a term whose
word is a function of no arguments.  A word lists its letters in the order
they act; a letter is a Kac-Moody generator (kind, j) as printed, acting
through `km`, a Hecke letter (kind, index, exponent), kind T X Y Q or W,
acting through `hecke.apply_letter`, or (operator, *arguments) for any
other operator method, e.g. ("mode", kind, i, k) or ("psi",).  Each ops
object keeps the word memo of the probe vector its last check ran on, a
prefix trie filled as checks walk it: each word prefix is applied once and
shared by every check on that probe, and a check on another probe starts a
new memo, so builders emit their items probe by probe; the check's own loop
walks every term, and `_child` makes each node.  A report stores the
status, from which its JSON bools residual_zero and budget_valid are
derived.  The runner sorts the reports (NamedTuples) by key and
`write_jsonl` fills one sorted-key line template, so the emitted JSON
stream is byte-identical across runs; per-check wall time stays out of the
JSON.  `summarize` counts the reports' (relation, status) pairs.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from . import hecke  # the kernel by its module name, which perfbench/layers.py traces
from .scalars import MINUS_ONE, ONE

KM_KINDS = frozenset(("e", "f", "k", "kinv"))
HECKE_KINDS = frozenset("TXYQW")
MINUS_UNIT = (MINUS_ONE, ())  # the term -1: the empty word, the identity operator, subtracted
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode  # dumps_canonical's encoding of one value
_RELATION_STATUS = itemgetter(0, 4)  # (relation, status) of a report, what `summarize` counts
_TOTAL_KEY = {"pass": "passed", "fail": "failed", "skip": "skipped"}  # summary totals key of a status


def _child(ops, node, letter):
    """
    The memo node of `letter` applied to `node`, made on first use: the one
    place an operator is applied.  A node is [vector, children or None]; an
    empty result, where words stop, is False.  A letter that leaves the
    window raises, and no node is stored for it.
    """
    v, name = node[0], letter[0]
    if name == "mode":  # the hot letter, called without the generic splat below
        w = ops.mode(letter[1], letter[2], letter[3], v)
    elif name in KM_KINDS:
        w = ops.km(name, letter[1], v)
    elif name in HECKE_KINDS:
        w = hecke.apply_letter(ops, letter, v)
    else:
        w = getattr(ops, name)(*letter[1:], v)
    node[1] = kids = node[1] or {}
    kids[letter] = child = [w, None] if w else False
    return child


def identity(vec, ops, *residuals):
    """
    The check that every residual, an expression lhs - rhs, is zero on vec:
    "" when it is, else a note naming the first nonzero residual.  An
    evaluation that leaves the window raises, and the runner reports the
    check as a skip.

    Each term whose word is a tuple walks it through the memo that ops holds
    for vec, first letter first, stopping at an empty vector, so a prefix
    that an earlier check on the same probe used costs a dict lookup; a check
    on another vec replaces the memo, freeing the last probe's words.  Any
    other word is a closed form, called with no arguments.  An item's thunk
    is partial(identity, vec, ops, *residuals), its residuals built as the
    item is made.
    """
    note = ""
    root = getattr(ops, "_word_memo", None)
    if root is None or root[0] is not vec:  # a new probe: drop the last one's words
        root = ops._word_memo = [vec, None]
    for expr in residuals:
        res = {}
        for c, word in expr:
            if word.__class__ is not tuple:  # a closed form
                hecke.merge_vec(res, word().items(), c)
                continue
            node = root
            for letter in word:
                kids = node[1]
                child = kids.get(letter) if kids else None
                node = _child(ops, node, letter) if child is None else child
                if not node:  # an empty vector: the word stops here
                    break
            else:
                hecke.merge_vec(res, node[0].items(), c)
        if res and not note:
            note = f"residual has {len(res)} term(s); lead key {min(res)}"
    return note


class RelationReport(NamedTuple):
    relation: str
    indices: tuple
    modes: tuple
    probe: str
    status: str  # "pass", "fail", or "skip" for a check that left the window
    elapsed: float = 0.0
    note: str = ""

    def to_json_obj(self):
        obj = {
            "relation": self.relation,
            "indices": list(self.indices),
            "modes": list(self.modes),
            "probe": self.probe,
            "residual_zero": self.status == "pass",
            "budget_valid": self.status != "skip",
            "status": self.status,
        }
        if self.note and self.status != "pass":
            obj["note"] = self.note
        return obj


def run_relation_items(items, *, workers=1):
    """
    Execute check items, taking each from the iterable only when it runs,
    and return reports sorted by (relation, indices, modes, probe).  A
    thunk's "" is a pass and its note a fail; a window exit it raises is a
    skip, the exception's text its note.  The sort is stable: reports under
    one key keep the order of their items.
    """
    # kept only because perfbench/sweep.py forwards workers=1 to this runner
    if workers != 1:
        raise ValueError(f"the check runner is serial; workers must be 1, got {workers!r}")
    clock, reports, new = time.perf_counter, [], tuple.__new__
    append = reports.append
    for (relation, indices, modes, probe), thunk in items:
        t0 = clock()
        try:
            note = thunk()
        except hecke.WindowExit as exc:
            status, note = "skip", str(exc)
        else:
            status = "fail" if note else "pass"
        dt = clock() - t0
        append(new(RelationReport, (relation, tuple(indices), tuple(modes), probe, status, dt, note)))
    thunk = None  # the last item holds the module and its word memo: free them before the sort
    reports.sort(key=itemgetter(0, 1, 2, 3))
    return reports


def summarize(reports, config_echo):
    totals = {"checked": len(reports), "passed": 0, "failed": 0, "skipped": 0}
    per_relation = {}
    for (relation, status), count in Counter(map(_RELATION_STATUS, reports)).items():
        per_relation.setdefault(relation, {"pass": 0, "fail": 0, "skip": 0})[status] += count
        totals[_TOTAL_KEY[status]] += count
    status = "fail" if totals["failed"] else "warn" if totals["skipped"] else "pass"
    worst = {
        rel: ("fail" if c["fail"] else ("skip" if c["skip"] else "pass"))
        for rel, c in sorted(per_relation.items())
    }
    return {
        "schema": "sweep-summary@1",
        "config": config_echo,
        "totals": totals,
        "per_relation": {k: per_relation[k] for k in sorted(per_relation)},
        "worst": worst,
        "status": status,
    }


def dumps_canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_jsonl(path, reports):
    """
    Stream the lines dumps_canonical(r.to_json_obj()) from one sorted-key template, each
    relation, probe, indices and modes value encoded once.  Tuples share a text only when
    every element is an int, since (1,) == (True,).  The bools residual_zero (a pass) and
    budget_valid (not a skip) are derived from the status.
    """
    memo = {}
    hit = memo.get
    ints = {*map(type, chain.from_iterable(chain.from_iterable(map(itemgetter(1, 2), reports))))} <= {int}
    hit_tuple = hit if ints else {}.get  # else a lookup that always misses

    def encode(value):
        memo[value] = text = _ENCODE(value)
        return text

    def lines():
        for relation, indices, modes, probe, status, _, note in reports:
            note = f'"note":{_ENCODE(note)},' if note and status != "pass" else ""
            yield (f'{{"budget_valid":{"false" if status == "skip" else "true"},'
                   f'"indices":{hit_tuple(indices) or encode(indices)},"modes":{hit_tuple(modes) or encode(modes)},'
                   f'{note}"probe":{hit(probe) or encode(probe)},"relation":{hit(relation) or encode(relation)},'
                   f'"residual_zero":{"true" if status == "pass" else "false"},"status":"{status}"}}\n')

    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines())


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in map(str.strip, fh) if line]


def render_table(objs):
    """Human-readable failure-first table of report records."""
    lines = []
    header = f"{'relation':<16} {'indices':<10} {'modes':<16} {'probe':<7} status"
    lines.append(header)
    lines.append("-" * len(header))
    ranked = sorted(objs, key=lambda o: ({"fail": 0, "skip": 1, "pass": 2}[o["status"]],
                                         o["relation"], o["probe"]))
    shown = 0
    for o in ranked:
        if o["status"] == "pass" and shown >= 40:
            continue
        lines.append(
            f"{o['relation']:<16} {str(tuple(o['indices'])):<10} "
            f"{str(tuple(o['modes'])):<16} {o['probe']:<7} {o['status']}"
            + (f"  {o.get('note', '')}" if o["status"] != "pass" else "")
        )
        shown += 1
    counts = {"pass": 0, "fail": 0, "skip": 0}
    for o in objs:
        counts[o["status"]] += 1
    lines.append(f"total {len(objs)}  pass {counts['pass']}  fail {counts['fail']}  skip {counts['skip']}")
    return "\n".join(lines)
