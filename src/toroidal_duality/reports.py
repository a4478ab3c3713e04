"""
Relation reports, the one way to state a check, and the deterministic
check runner.

A check item is ((relation, indices, modes, probe), thunk) where the thunk
returns (residual_zero, budget_valid, note).  `identity` builds the thunk
of every identity check lhs == rhs, each side either an expression, a
tuple of (coeff, word) terms, or a closed-form function of the window
budget.  Words act rightmost letter first; a letter is a Kac-Moody
generator (kind, j) as printed, acting through `km`, or (operator,
*arguments) for any other operator method, e.g. ("mode", kind, i, k) or
("psi",).  `eval_trie` is the one evaluator of expressions.  The runner
sorts the reports by key, so the emitted JSON stream is byte-identical
across runs; per-check wall time stays out of the canonical JSON.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction

from . import hecke  # the kernel by its module name, which perfbench/layers.py traces

KM_KINDS = frozenset(("e", "f", "k", "kinv"))
ONE, MINUS_ONE = Fraction(1), Fraction(-1)
UNIT = ((ONE, ()),)  # the empty word: the identity operator


def nc_trie(expr, root=None, sign=1):
    """
    Suffix trie of an expression, or `root` with sign * expr added to it:
    words that end in the same letters share the nodes of that suffix.  A
    node is (children by letter, coefficients of the words that end there).
    """
    if root is None:
        root = ({}, [])
    for c, word in expr:
        node = root
        for sym in reversed(word):
            child = node[0].get(sym)
            if child is None:
                child = node[0][sym] = ({}, [])
            node = child
        node[1].append(c if sign > 0 else -c)
    return root


def eval_trie(ops, trie, vec, budget, out=None):
    """
    Add the trie's expression applied to vec into `out` (a new vector if
    None) and return it.  Depth first, one operator call per node: each node
    sees the vector its suffix gives word by word, and a subtree below an
    empty vector is skipped, as a word stops at one.  Every letter goes
    through its operator method, so each method's own argument checks hold.
    """
    if out is None:
        out = {}
    stack = [(trie, vec)]
    while stack:
        (children, ends), v = stack.pop()
        for c in ends:
            hecke.merge_vec(out, v.items(), c)
        for letter, child in children.items():
            name = letter[0]
            if name == "mode":  # the hot letter, called without the generic splat below
                w = ops.mode(letter[1], letter[2], letter[3], v, budget)
            elif name in KM_KINDS:
                w = ops.km(name, letter[1], v, budget)
            else:
                w = getattr(ops, name)(*letter[1:], v, budget)
            if w:
                stack.append((child, w))
    return out


def identity(sides, ops=None):
    """
    The check lhs == rhs for every (lhs, rhs) pair that sides(vec, *args)
    returns, as a function of (vec, *args).

    Expression sides act on vec through the operators of `ops`; callable
    sides are called with the budget.  Every pair is evaluated against one
    fresh WindowBudget, and the check returns (residual_zero, budget_valid,
    note), the note naming the first nonzero residual.  Bind the arguments
    with functools.partial to get the item's thunk; `sides` runs inside it,
    so an item costs nothing to build.
    """

    def check(vec, *args):
        budget = hecke.WindowBudget()
        note = ""
        for lhs, rhs in sides(vec, *args):
            res, trie = {}, None
            if callable(lhs):
                res = dict(lhs(budget))
            elif lhs:
                trie = nc_trie(lhs)
            if callable(rhs):
                hecke.merge_vec(res, [(key, -c) for key, c in rhs(budget).items()])
            elif rhs:
                trie = nc_trie(rhs, trie, -1)
            if trie is not None:
                eval_trie(ops, trie, vec, budget, res)
            if res and not note:
                note = f"residual has {len(res)} term(s); lead key {min(res)}"
        return not note, budget.ok(), note

    return check


@dataclass(frozen=True)
class RelationReport:
    relation: str
    indices: tuple
    modes: tuple
    probe: str
    residual_zero: bool
    budget_valid: bool
    elapsed: float = 0.0
    note: str = ""

    @property
    def status(self):
        # a budget-invalid probe is never a pass
        if not self.budget_valid:
            return "skip"
        return "pass" if self.residual_zero else "fail"

    def sort_key(self):
        return (self.relation, self.indices, self.modes, self.probe)

    def to_json_obj(self):
        obj = {
            "relation": self.relation,
            "indices": list(self.indices),
            "modes": list(self.modes),
            "probe": self.probe,
            "residual_zero": self.residual_zero,
            "budget_valid": self.budget_valid,
            "status": self.status,
        }
        if self.note and self.status != "pass":
            obj["note"] = self.note
        return obj


def run_relation_items(items, *, workers=1):
    """Execute check items and return reports sorted by (relation, indices, modes, probe)."""
    # kept only because perfbench/sweep.py forwards workers=1 to this runner
    if workers != 1:
        raise ValueError(f"the check runner is serial; workers must be 1, got {workers!r}")
    reports = []
    for (relation, indices, modes, probe), thunk in items:
        t0 = time.perf_counter()
        zero, valid, note = thunk()
        dt = time.perf_counter() - t0
        reports.append(RelationReport(relation, tuple(indices), tuple(modes), probe,
                                      bool(zero), bool(valid), dt, note))
    reports.sort(key=RelationReport.sort_key)
    return reports


def summarize(reports, config_echo):
    totals = {"checked": len(reports), "passed": 0, "failed": 0, "skipped": 0}
    per_relation = {}
    for r in reports:
        slot = per_relation.setdefault(r.relation, {"pass": 0, "fail": 0, "skip": 0})
        slot[r.status] += 1
        key = {"pass": "passed", "fail": "failed", "skip": "skipped"}[r.status]
        totals[key] += 1
    status = "pass"
    if totals["skipped"]:
        status = "warn"
    if totals["failed"]:
        status = "fail"
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
    with open(path, "w", encoding="utf-8") as fh:
        for r in reports:
            fh.write(dumps_canonical(r.to_json_obj()))
            fh.write("\n")


def read_jsonl(path):
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


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
            + (f"  {o.get('note', '')}" if o["status"] == "fail" else "")
        )
        shown += 1
    counts = {"pass": 0, "fail": 0, "skip": 0}
    for o in objs:
        counts[o["status"]] += 1
    lines.append(f"total {len(objs)}  pass {counts['pass']}  fail {counts['fail']}  skip {counts['skip']}")
    return "\n".join(lines)
