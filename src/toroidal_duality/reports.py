"""
Relation reports and the deterministic check runner.

A check item is ((relation, indices, modes, probe), thunk) where the thunk
returns (residual_zero, budget_valid, note); `identity` builds the thunks
of every check that states one vector identity.  The runner evaluates the
items in order and sorts the reports by key, so the emitted JSON stream is
byte-identical across runs.  Per-check wall time is kept on the in-memory
record for the human table but deliberately left out of the canonical JSON.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .hecke import WindowBudget, vec_sub


def identity(lhs, rhs=None):
    """
    The check lhs == rhs, as a function of the instance's arguments.

    Called with `args`, it evaluates lhs(budget, *args) and rhs(budget,
    *args) against one fresh WindowBudget and returns (residual_zero,
    budget_valid, note).  Without rhs, lhs is the residual itself.  Bind the
    arguments with functools.partial to get the item's thunk.
    """

    def check(*args):
        budget = WindowBudget()
        res = lhs(budget, *args)
        if rhs is not None:
            res = vec_sub(res, rhs(budget, *args))
        return not res, budget.ok(), _residual_note(res) if res else ""

    return check


def _residual_note(res):
    key = sorted(res)[0]
    return f"residual has {len(res)} term(s); lead key {key}"


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
