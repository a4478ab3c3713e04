"""
Per-layer tracing from outside the package.

A `Tracer` replaces public functions and methods of the package's modules
with wrappers, for the duration of one sweep, and restores them afterwards.
Each name is patched everywhere it was imported (`duality.apply_expr` as
well as `hecke.apply_expr`, `dvec_add` in `qtoroidal` and `dualchecks`), so
every call is seen.  Hot calls are aggregated, never kept as spans: per
wrapped name the tracer keeps the call count, the total time and the time
spent in wrapped callees, so self time = total - callee time.  Work counts
(operator lookups against distinct columns, Hecke letter lookups against
distinct (letter, key) pairs, merged terms) are taken from the arguments
the wrappers see.

Every count is exact and must repeat from one traced sweep to the next;
the times are only as steady as the machine.
"""

from __future__ import annotations

import operator
import statistics
from collections import Counter
from time import perf_counter

from sweep import patched

# DualityModule operators: name -> number of positional arguments before `vec`
DUALITY_OPS = {
    "mode": 3, "km": 2, "straighten": 0, "braid": 1,
    "tau": 0, "psi": 0, "psi_inv": 0, "t_omega1": 0,
}
# operators whose outputs supply the scalar microbenchmark's operands
OPERAND_OPS = ("mode", "straighten")
KINDS = ("fraction", "laurent", "laurentfrac")
OPERAND_POOL = 256

QTOROIDAL_FAMILIES = ("2.1.1-unit",) + tuple(f"2.1.{k}" for k in range(1, 10)) + ("int", "cc", "level")
DUALCHECKS_FAMILIES = ("braid", "psi", "translation", "rotation", "recon", "reg")
HECKE_FAMILIES = ("defining", "qpres", "segment")

HECKE_ITEM_BUILDERS = ("defining_relation_checks", "q_presentation_checks",
                       "conjugation_lemma_checks", "make_hecke_items")
QTOROIDAL_ITEM_BUILDERS = ("current_relation_items", "integrability_items",
                           "central_charge_items", "level_items")
DUALCHECKS_ITEM_BUILDERS = ("psi_conjugation_items", "intertwining_items", "regression_items",
                            "reconstruction_items", "psi_inverse_items")


def family_of(relation):
    """Relation id -> the traced family it belongs to."""
    head = relation.split(".")[0]
    if head in HECKE_FAMILIES:
        return f"hecke.family.{head}"
    if relation.startswith("2.1."):
        return f"qtoroidal.family.{relation}"
    if head in ("int", "cc", "level"):
        return f"qtoroidal.family.{head}"
    return f"dualchecks.family.{head}"


def kind_of(c):
    name = type(c).__name__
    return "fraction" if name in ("Fraction", "int") else name.lower()


class Tracer:
    """Aggregated timings and exact work counts for one traced sweep."""

    def __init__(self):
        self.frames = []          # callee-time accumulators of the open timed calls
        self.timing = {}          # name -> [calls, total_s, callee_s]
        self.counts = Counter()   # name -> exact count
        self.distinct = {}        # name -> set of distinct work items
        self.kinds = Counter()    # output coefficients by scalar kind
        self.den_bits_max = 0
        # first distinct output coefficients per kind, by source
        self.operands = {"duality": {k: {} for k in KINDS}, "hecke": {k: {} for k in KINDS}}

    # -- wrappers ---------------------------------------------------------------

    def timed(self, name, fn, before=None, after=None):
        stat = self.timing.setdefault(name, [0, 0.0, 0.0])
        frames = self.frames

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frames.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += frames.pop()
                if frames:
                    frames[-1] += dt
            if after is not None:
                after(result)
            return result

        return wrapper

    def counted(self, name, fn, size=None):
        """Count calls (or the summed `size(args)`) without opening a timed frame."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1 if size is None else size(args)
            return fn(*args, **kwargs)

        return wrapper

    # -- observers --------------------------------------------------------------

    def _observe_outputs(self, source):
        kinds = self.kinds
        pools = self.operands[source] if source else None

        def after(vec):
            for c in vec.values():
                kind = kind_of(c)
                kinds[kind] += 1
                if kind == "fraction":
                    bits = c.denominator.bit_length()
                    if bits > self.den_bits_max:
                        self.den_bits_max = bits
                if pools is not None:
                    pool = pools[kind]
                    if len(pool) < OPERAND_POOL:
                        pool.setdefault(c, None)

        return after

    def _observe_columns(self, op, nlead):
        counts = self.counts
        lookups = f"duality.{op}.lookups"
        columns = self.distinct.setdefault(f"duality.{op}.columns", set())

        def before(args):
            lead = args[1 : 1 + nlead]
            vec = args[1 + nlead]
            counts[lookups] += len(vec)
            for key in vec:
                columns.add(lead + (key,))

        return before

    def _observe_letters(self):
        counts = self.counts
        pairs = self.distinct.setdefault("hecke.letter.fills", set())

        def before(args):
            counts["hecke.letter.lookups"] += 1
            pairs.add((args[1], args[2]))

        return before

    # -- installation -----------------------------------------------------------

    def patches(self, pkg):
        """(owner, name, wrapper) for every traced name, at every import site."""
        hecke, duality, qtoroidal = pkg.hecke, pkg.duality, pkg.qtoroidal
        dualchecks, series = pkg.dualchecks, pkg.series
        out = []

        def everywhere(name, wrapper, owners):
            out.extend((owner, name, wrapper) for owner in owners)

        word = self.timed("hecke.apply_word", hecke.apply_word, after=self._observe_outputs("hecke"))
        expr = self.timed("hecke.apply_expr", hecke.apply_expr, after=self._observe_outputs(None))
        everywhere("apply_word", word, (hecke, duality, dualchecks))
        everywhere("apply_expr", expr, (hecke, duality, dualchecks))
        out.append((hecke, "merge_vec",
                    self.counted("hecke.merge_vec.terms", hecke.merge_vec, lambda a: len(a[1]))))
        for cls in (hecke.PolynomialModule, hecke.UnitModule):
            out.append((cls, "letter_cached",
                        self.timed("hecke.letter", cls.letter_cached, before=self._observe_letters())))

        for op, nlead in DUALITY_OPS.items():
            source = "duality" if op in OPERAND_OPS else None
            out.append((duality.DualityModule, op, self.timed(
                f"duality.{op}", getattr(duality.DualityModule, op),
                before=self._observe_columns(op, nlead), after=self._observe_outputs(source),
            )))
        everywhere("dvec_add", self.counted("duality.dvec_add.terms", duality.dvec_add,
                                            lambda a: len(a[1])), (duality, qtoroidal, dualchecks))
        everywhere("theta_expand", self.counted("series.theta_expand.calls", series.theta_expand),
                   (series, duality))

        out.append((hecke, "hecke_probes",
                    self.timed("cli.setup.hecke_probes", hecke.hecke_probes)))
        out.append((duality, "duality_probes",
                    self.timed("cli.setup.duality_probes", duality.duality_probes)))
        for owner, names in ((hecke, HECKE_ITEM_BUILDERS), (qtoroidal, QTOROIDAL_ITEM_BUILDERS),
                             (dualchecks, DUALCHECKS_ITEM_BUILDERS)):
            for name in names:
                out.append((owner, name, self.timed("cli.setup.items", getattr(owner, name))))
        return out

    def wrap_items(self, items):
        """Time each check thunk under its relation family."""
        return [(meta, self.timed(family_of(meta[0]), thunk)) for meta, thunk in items]

    def installed(self, pkg):
        return patched(self.patches(pkg))

    # -- results ----------------------------------------------------------------

    def exact_counts(self):
        """Every count the self-test requires to repeat exactly."""
        out = dict(self.counts)
        out.update({name: len(items) for name, items in self.distinct.items()})
        out.update({f"{name}.calls": stat[0] for name, stat in self.timing.items()})
        out.update({f"scalars.kind.{k}": self.kinds[k] for k in KINDS})
        out["scalars.fraction.den_bits_max"] = self.den_bits_max
        return out

    def operand_pools(self):
        """Operands for the microbenchmark: duality outputs, else Hecke word outputs."""
        duality = self.operands["duality"]
        source = duality if any(duality.values()) else self.operands["hecke"]
        return {kind: list(pool) for kind, pool in source.items()}

    def layer_metrics(self):
        """Per-layer metrics (name -> (value, unit)) from this sweep's aggregates."""
        counts = self.exact_counts()

        def calls(name):
            return self.timing.get(name, (0, 0.0, 0.0))[0]

        def total_s(name):
            return self.timing.get(name, (0, 0.0, 0.0))[1]

        def self_s(name):
            _, total, callee = self.timing.get(name, (0, 0.0, 0.0))
            return total - callee

        m = {}
        for fn in ("apply_word", "apply_expr"):
            m[f"hecke.{fn}.calls"] = (calls(f"hecke.{fn}"), "count")
            m[f"hecke.{fn}.self_s"] = (self_s(f"hecke.{fn}"), "s")
        lookups = counts.get("hecke.letter.lookups", 0)
        fills = counts.get("hecke.letter.fills", 0)
        m["hecke.letter.lookups"] = (lookups, "count")
        m["hecke.letter.fills"] = (fills, "count")
        m["hecke.letter.fill_ratio"] = (fills / lookups if lookups else 0.0, "ratio")
        m["hecke.letter.self_s"] = (self_s("hecke.letter"), "s")
        m["hecke.merge_vec.terms"] = (counts.get("hecke.merge_vec.terms", 0), "count")
        for fam in HECKE_FAMILIES:
            m[f"hecke.family.{fam}.checks"] = (calls(f"hecke.family.{fam}"), "count")
            m[f"hecke.family.{fam}.s"] = (total_s(f"hecke.family.{fam}"), "s")

        for op in DUALITY_OPS:
            name = f"duality.{op}"
            looked, cols = counts.get(f"{name}.lookups", 0), counts.get(f"{name}.columns", 0)
            m[f"{name}.calls"] = (calls(name), "count")
            m[f"{name}.self_s"] = (self_s(name), "s")
            m[f"{name}.lookups"] = (looked, "count")
            m[f"{name}.columns"] = (cols, "count")
            m[f"{name}.fill_ratio"] = (cols / looked if looked else 0.0, "ratio")
        m["duality.dvec_add.terms"] = (counts.get("duality.dvec_add.terms", 0), "count")

        for prefix, fams in (("qtoroidal", QTOROIDAL_FAMILIES), ("dualchecks", DUALCHECKS_FAMILIES)):
            for fam in fams:
                name = f"{prefix}.family.{fam}"
                m[f"{name}.checks"] = (calls(name), "count")
                m[f"{name}.s"] = (total_s(name), "s")
                m[f"{name}.self_s"] = (self_s(name), "s")

        for kind in KINDS:
            m[f"scalars.kind.{kind}"] = (self.kinds[kind], "count")
        m["scalars.fraction.den_bits_max"] = (self.den_bits_max, "bits")
        for part in ("hecke_probes", "duality_probes", "items"):
            m[f"cli.setup.{part}_s"] = (total_s(f"cli.setup.{part}"), "s")
        m["series.theta_expand.calls"] = (counts.get("series.theta_expand.calls", 0), "count")
        return m


def scalar_microbench(pools, min_pass_s=0.02, passes=5):
    """
    ns per `a + b` and `a * b` for each scalar kind, over pairs of operands
    taken from the workload's own operator outputs (each operand paired with
    its neighbour in first-seen order).  Median over `passes`; a kind that
    never occurred reports 0.
    """
    out = {}
    for kind in KINDS:
        a = pools.get(kind, [])
        for opname, op in (("add", operator.add), ("mul", operator.mul)):
            name = f"scalars.{kind}.{opname}_ns"
            if not a:
                out[name] = (0.0, "ns")
                continue
            b = a[1:] + a[:1]
            reps = 1
            while True:
                t0 = perf_counter()
                for _ in range(reps):
                    list(map(op, a, b))
                if perf_counter() - t0 >= min_pass_s:
                    break
                reps *= 2
            samples = []
            for _ in range(passes):
                t0 = perf_counter()
                for _ in range(reps):
                    list(map(op, a, b))
                samples.append((perf_counter() - t0) / (reps * len(a)) * 1e9)
            out[name] = (statistics.median(samples), "ns")
    return out
