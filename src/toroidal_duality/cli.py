"""
Command-line orchestration.

    toroidal-duality verify {hecke,toroidal,duality,all} [options]
    toroidal-duality report {json,table} INPUT

verify builds the configured module family, runs the selected relation
suites, streams one canonical JSON record per check to --out (plus a
summary document next to it), prints a human summary, and exits 0 on a
clean pass (warnings for skipped probes stay exit 0), 1 on any failed
relation, 2 on a configuration violation.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys
import time
from itertools import chain

from .config import KEY_TYPES, PRESETS, ConfigError, SweepConfig, load_config
from .reports import (
    dumps_canonical,
    read_jsonl,
    render_table,
    run_relation_items,
    summarize,
    write_jsonl,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2

TARGETS = ("hecke", "toroidal", "duality", "all")


def collect_items(target, cfg: SweepConfig):
    """
    The check items of a target, as one iterator, plus the manifest
    describing module and probes.  Every builder is called here, so a bad
    argument raises at once; each item is made only as the runner takes it,
    and dropped once its report exists, so no sweep holds all its items.
    """
    from .duality import DualityModule, duality_probes, dvec_to_json, hvec_to_json
    from .dualchecks import (
        intertwining_items,
        psi_conjugation_items,
        psi_inverse_items,
        reconstruction_items,
        regression_items,
    )
    from .hecke import (
        conjugation_lemma_checks,
        defining_relation_checks,
        hecke_probes,
        make_hecke_items,
        q_presentation_checks,
    )
    from .qtoroidal import (
        central_charge_items,
        current_relation_items,
        integrability_items,
        level_items,
    )

    prefixes = cfg.relation_prefixes()
    parts = []  # one lazy iterable of items per builder, in sweep order

    def build(stems, builder, *args):
        """Add builder(*args) to the sweep unless none of its relation ids (each starting with one of `stems`) is kept."""
        if not prefixes or any(s.startswith(prefixes) or p.startswith(s) for s in stems for p in prefixes):
            parts.append(builder(*args))

    hmod = cfg.build_hecke_module()
    manifest = {"module": hmod.descriptor(), "probes": {}}
    hp = None
    if target in ("hecke", "all"):
        hp = hecke_probes(hmod, cfg.hecke_probes, cfg.seed)
        manifest["probes"].update({pid: hvec_to_json(vec) for pid, vec in hp})
        checks = defining_relation_checks(hmod) + q_presentation_checks(hmod) + conjugation_lemma_checks(hmod)
        build(("defining.", "qpres.", "segment."), make_hecke_items, hmod, checks, hp)
    if target in ("toroidal", "duality", "all"):
        dmod = DualityModule(hmod)
        dp = duality_probes(dmod, cfg.probes, cfg.seed)
        manifest["probes"].update({pid: dvec_to_json(vec) for pid, vec in dp})
        if target in ("toroidal", "all"):
            build(("2.1.",), current_relation_items, dmod, cfg.modes, dp)
            build(("int.",), integrability_items, dmod, cfg.modes, dp)
            build(("cc.",), central_charge_items, dmod, dp)
            build(("level.",), level_items, dmod, dp)
        if target in ("duality", "all"):
            # at most 12 Hecke probes; `all` takes them from the Hecke suites' list,
            # since the last two probes of a list depend on its length
            hp = hecke_probes(hmod, min(cfg.hecke_probes, 12), cfg.seed) if hp is None else hp[:12]
            manifest["probes"].update({pid: hvec_to_json(vec) for pid, vec in hp})
            build(("psi.shift-", "psi.double-"), psi_conjugation_items, dmod, cfg.modes, dp)
            build(("braid.", "rotation.", "translation."), intertwining_items, dmod, dp)
            build(("reg.",), regression_items, dmod, cfg.modes, dp)
            build(("recon.",), reconstruction_items, dmod, cfg.modes, hp)
            build(("psi.inverse",), psi_inverse_items, dmod, dp)
    items = chain.from_iterable(parts)
    if prefixes:
        items = (entry for entry in items if entry[0][0].startswith(prefixes))
        first = next(items, None)
        if first is None:  # a sweep of nothing would report a vacuous pass
            raise ConfigError(f"--relations {cfg.relations!r} keeps no relation of target {target!r}")
        items = chain((first,), items)
    return items, manifest


@contextlib.contextmanager
def collector_paused():
    """
    Run the body (or, as a decorator, each call) with the cyclic garbage
    collector off, then restore the state it was found in.  Nested uses
    leave it off until the outermost ends.

    Reference counting still frees what a sweep drops; the collector would
    only traverse the sweep's live memo nodes and reports again and again.
    The only cyclic garbage a command leaves is its argparse parser, whose
    size does not grow with the sweep.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@collector_paused()
def run_verify(target, cfg: SweepConfig):
    """Run a sweep with the collector paused; returns (reports, summary, wall_seconds)."""
    t0 = time.perf_counter()
    items, manifest = collect_items(target, cfg)
    reports = run_relation_items(items)
    wall = time.perf_counter() - t0
    summary = summarize(reports, {"target": target, **cfg.echo()})
    summary.update(manifest)
    return reports, summary, wall


def _cmd_verify(args):
    overrides = {key: getattr(args, key) for key in KEY_TYPES}  # each setting is the flag of its name
    try:
        cfg = load_config(preset=args.preset, overrides=overrides)
        if cfg.out and not os.path.isdir(os.path.dirname(cfg.out) or "."):
            raise ConfigError(f"--out directory does not exist: {cfg.out!r}")
        if cfg.out and os.path.isdir(cfg.out):
            raise ConfigError(f"--out is a directory, not a file path: {cfg.out!r}")
        reports, summary, wall = run_verify(args.target, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if cfg.out:
        spath = cfg.out[:-6] + ".summary.json" if cfg.out.endswith(".jsonl") else cfg.out + ".summary.json"
        try:
            write_jsonl(cfg.out, reports)
            with open(spath, "w", encoding="utf-8") as fh:
                fh.write(dumps_canonical(summary))
                fh.write("\n")
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    totals = summary["totals"]
    print(
        f"{args.target}: {totals['checked']} checks  "
        f"pass {totals['passed']}  fail {totals['failed']}  skip {totals['skipped']}  "
        f"[{wall:.1f}s]"
    )
    for rel, state in summary["worst"].items():
        if state != "pass":
            print(f"  {state.upper()}: {rel}")
    if summary["status"] == "warn":
        print("warning: some checks left the lattice window and were skipped; "
              "each skip's note names the letter and the key", file=sys.stderr)
    if args.target in ("hecke", "all") and cfg.family != "l1" and "probes" in summary:
        # the l1 module has one key, so one probe; a Hecke probe's id is h000, h001, ...
        made = sum(pid.startswith("h") for pid in summary["probes"])
        if made < cfg.hecke_probes:
            print(f"warning: the Hecke suites ran {made} probes, not the {cfg.hecke_probes} asked for; "
                  f"window {cfg.window} holds no more distinct probe keys", file=sys.stderr)
    return EXIT_PASS if summary["status"] != "fail" else EXIT_FAIL


def _cmd_report(args):
    try:
        objs = read_jsonl(args.input)
    except (OSError, ValueError) as exc:
        print(f"cannot read report stream: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.format == "json":
        for obj in objs:
            print(dumps_canonical(obj))
        return EXIT_PASS
    try:
        table = render_table(objs)
    except (KeyError, TypeError) as exc:
        print(f"cannot read report stream: not a report record ({type(exc).__name__}: {exc})", file=sys.stderr)
        return EXIT_CONFIG
    print(table)
    return EXIT_PASS


def build_parser():
    parser = argparse.ArgumentParser(
        prog="toroidal-duality",
        description="exact relation sweeps for toroidal Hecke modules and their dual currents",
        allow_abbrev=False,  # a flag is spelled out in full, so no new flag changes what an old spelling means
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a relation suite", allow_abbrev=False)
    v.add_argument("target", choices=TARGETS)
    v.add_argument("--preset", choices=sorted(PRESETS), help="named desk-scale preset")
    v.add_argument("--n", type=int)
    v.add_argument("--l", type=int)
    v.add_argument("--q")
    v.add_argument("--d")
    v.add_argument("--family", choices=("l1", "polynomial"))
    v.add_argument("--window", type=int, help="lattice window N")
    v.add_argument("--modes", type=int, help="mode window K")
    v.add_argument("--probes", type=int)
    v.add_argument("--hecke-probes", dest="hecke_probes", type=int)
    v.add_argument("--seed", type=int)
    v.add_argument("--a", help="the scalar X acts by on the l1 module")
    v.add_argument("--b", help="the scalar Y acts by on the l1 module")
    v.add_argument("--relations", help="comma-separated relation-id prefixes to keep")
    v.add_argument("--out", help="JSON-lines report path (summary written alongside)")
    v.add_argument("--negative-control", action="store_true", default=None)
    v.add_argument("--symbolic", action="store_true", default=None, help="keep q, d formal")
    v.set_defaults(func=_cmd_verify)

    r = sub.add_parser("report", help="render a report stream", allow_abbrev=False)
    r.add_argument("format", choices=("json", "table"))
    r.add_argument("input")
    r.set_defaults(func=_cmd_report)
    return parser


@collector_paused()
def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
