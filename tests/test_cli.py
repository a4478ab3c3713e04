"""CLI contract: exit codes, config precedence, canonical report streams."""

import gc
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import toroidal_duality
from toroidal_duality.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_PASS, main
from toroidal_duality.config import ConfigError, load_config
from toroidal_duality.reports import RelationReport, run_relation_items, summarize

FAST = ["--probes", "3", "--hecke-probes", "6", "--modes", "1", "--seed", "11"]


def test_verify_hecke_passes(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    code = main(["verify", "hecke", "--preset", "poly", *FAST, "--out", str(out)])
    assert code == EXIT_PASS
    assert "fail 0" in capsys.readouterr().out
    assert out.exists() and (tmp_path / "r.summary.json").exists()


def test_smallest_window_sweep_skips_nothing(tmp_path, capsys):
    # at window 2, the smallest, no check of any suite leaves the window
    out = tmp_path / "w2.jsonl"
    assert main(["verify", "all", "--preset", "poly", "--window", "2", "--out", str(out)]) == EXIT_PASS
    totals = json.loads((tmp_path / "w2.summary.json").read_text())["totals"]
    assert totals["skipped"] == 0 and totals["passed"] == totals["checked"] > 0


def test_verify_negative_control_fails(tmp_path):
    code = main(["verify", "hecke", "--preset", "poly", *FAST, "--negative-control",
                 "--out", str(tmp_path / "n.jsonl")])
    assert code == EXIT_FAIL


def test_negative_control_needs_polynomial_family(capsys):
    code = main(["verify", "hecke", "--preset", "l1", "--negative-control"])
    assert code == EXIT_CONFIG
    assert "polynomial" in capsys.readouterr().err


def test_duality_hypothesis_guard(capsys):
    code = main(["verify", "duality", "--preset", "poly", "--l", "3"])
    assert code == EXIT_CONFIG
    assert "l + 1 < n" in capsys.readouterr().err


def test_root_of_unity_guard(capsys):
    code = main(["verify", "toroidal", "--preset", "l1", "--q", "1", "--d", "1"])
    assert code == EXIT_CONFIG


def test_report_json_round_trip(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    main(["verify", "toroidal", "--preset", "l1", *FAST, "--out", str(out)])
    capsys.readouterr()
    assert main(["report", "json", str(out)]) == EXIT_PASS
    rendered = capsys.readouterr().out
    assert rendered == out.read_text()


def test_report_table(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    main(["verify", "hecke", "--preset", "poly", *FAST, "--out", str(out)])
    capsys.readouterr()
    assert main(["report", "table", str(out)]) == EXIT_PASS
    table = capsys.readouterr().out
    assert "relation" in table and "total" in table


def test_a_skip_warns_and_its_note_shows_in_the_table(tmp_path, capsys, monkeypatch):
    # no sweep at a supported window skips, so the sweep is a stub with one skip line
    import toroidal_duality.cli as cli

    note = "letter ('X', 1, 1) takes key (3, 0) out of the window"
    reports = [RelationReport("defining.x", (), (), "h000", "skip", 0.0, note),
               RelationReport("defining.x", (), (), "h001", "pass")]
    monkeypatch.setattr(cli, "run_verify", lambda target, cfg: (reports, summarize(reports, {}), 0.0))
    out = tmp_path / "s.jsonl"
    assert main(["verify", "hecke", "--preset", "poly", "--out", str(out)]) == EXIT_PASS
    err = capsys.readouterr().err
    assert "left the lattice window" in err and "Traceback" not in err
    assert main(["report", "table", str(out)]) == EXIT_PASS
    skip_row, = [line for line in capsys.readouterr().out.splitlines() if line.startswith("defining.x") and "skip" in line]
    assert skip_row.endswith("skip  " + note)


def test_report_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n")
    assert main(["report", "json", str(bad)]) == EXIT_CONFIG


@pytest.mark.parametrize("record", ['{"relation": "2.1.5", "probe": "p000"}', "[1, 2]"])
def test_report_table_rejects_records_that_are_not_reports(tmp_path, capsys, record):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(record + "\n")
    assert main(["report", "table", str(bad)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cannot read report stream" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_out_directory_must_exist_before_the_sweep(tmp_path, capsys, monkeypatch):
    import toroidal_duality.cli as cli

    def no_sweep(target, cfg):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_verify", no_sweep)
    out = tmp_path / "missing" / "x.jsonl"
    code = main(["verify", "hecke", "--preset", "poly", "--hecke-probes", "1", "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--out directory does not exist" in err and len(err.strip().splitlines()) == 1
    # an existing directory is no file path either
    code = main(["verify", "hecke", "--preset", "poly", "--hecke-probes", "1", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--out is a directory" in err and len(err.strip().splitlines()) == 1

    # a summary that cannot be written after the sweep is one line and exit 2, not a traceback
    monkeypatch.undo()
    (tmp_path / "y.summary.json").mkdir()
    code = main(["verify", "toroidal", "--preset", "l1", *FAST, "--relations", "level", "--out", str(tmp_path / "y.jsonl")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cannot write report" in err and "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_determinism_across_runs(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["verify", "toroidal", "--preset", "l1", *FAST, "--out", str(a)])
    main(["verify", "toroidal", "--preset", "l1", *FAST, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    sa = (tmp_path / "a.summary.json").read_bytes()
    sb = (tmp_path / "b.summary.json").read_bytes()
    assert sa == sb


@pytest.fixture
def collector_state():
    """Puts the cyclic collector back as the test found it."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("case,expected", [
    ("pass", EXIT_PASS), ("fail", EXIT_FAIL), ("config", EXIT_CONFIG), ("raises", RuntimeError),
])
def test_main_restores_the_collector_state(tmp_path, monkeypatch, collector_state, case, expected, enabled):
    import toroidal_duality.cli as cli

    real_run_verify, seen = cli.run_verify, []

    def run_verify(target, cfg):
        # the nested pause must not switch the collector back on inside main
        seen.append(gc.isenabled())
        if case == "raises":
            raise RuntimeError("planted sweep fault")
        result = real_run_verify(target, cfg)
        seen.append(gc.isenabled())
        return result

    monkeypatch.setattr(cli, "run_verify", run_verify)
    argv = ["verify", "hecke", "--preset", "l1" if case == "config" else "poly", *FAST,
            "--out", str(tmp_path / "r.jsonl")]
    if case in ("fail", "config"):
        argv.append("--negative-control")
    gc.enable() if enabled else gc.disable()
    if expected is RuntimeError:
        with pytest.raises(RuntimeError, match="planted"):
            main(argv)
    else:
        assert main(argv) == expected
    assert gc.isenabled() == enabled
    assert seen == {"pass": [False, False], "fail": [False, False], "config": [], "raises": [False]}[case]


def test_sweep_cyclic_garbage_does_not_grow_with_the_check_count(tmp_path, collector_state):
    # the safety argument for pausing the collector: reference counting frees
    # everything a sweep drops, so the cyclic garbage a command leaves (its
    # argparse parser) has a fixed size; compare two sizes, not a pinned count
    gc.disable()
    gc.collect()
    found, checked = [], []
    for probes in ("1", "4"):
        out = tmp_path / f"p{probes}.jsonl"
        assert main(["verify", "all", "--preset", "l1", "--probes", probes, "--seed", "11",
                     "--out", str(out)]) == EXIT_PASS
        found.append(gc.collect())
        checked.append(json.loads((tmp_path / f"p{probes}.summary.json").read_text())["totals"]["checked"])
    assert checked[1] > 3 * checked[0]
    assert found[0] == found[1]


def _verify_config(argv):
    """(target, config) of a `verify` command line, as the command loads them."""
    from toroidal_duality.cli import build_parser
    from toroidal_duality.config import KEY_TYPES

    args = build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in KEY_TYPES}
    return args.target, load_config(preset=args.preset, overrides=overrides)


def _benchmark_workloads():
    """The perfbench workloads recorded in perfbench/baseline.json (read only)."""
    baseline = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "baseline.json")
    with open(baseline, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


# the pinned sweeps, with their repeated keys: `all` at both presets holds every
# acceptance sweep's items but the negative control's
TIED_KEYS = {
    "all --preset poly": 200,
    "all --preset l1": 224,
    "hecke --preset poly --negative-control --hecke-probes 10": 0,
    "toroidal-poly-k3": 35,
    "toroidal-poly-formal": 25,
    "hecke-l3": 0,
    "duality-l3": 0,
}


@pytest.mark.parametrize("sweep, tied", TIED_KEYS.items(), ids=list(TIED_KEYS))
def test_only_nilpotent_pairs_share_a_key_and_keep_their_emission_order(sweep, tied):
    # int.nilpotent states its e and f checks at (i, k) under one key, since the
    # kind is not in it; the stream cannot tell the two records apart, so the
    # runner's stable sort must keep them as emitted: e, then f
    from toroidal_duality.cli import collect_items

    workloads = _benchmark_workloads()
    argv = workloads[sweep]["argv"] if sweep in workloads else ["verify", *sweep.split()]
    items = list(collect_items(*_verify_config(argv))[0])
    emitted = {}
    for n, (meta, thunk) in enumerate(items):
        emitted.setdefault(meta, []).append(n)
    repeated = {meta: at for meta, at in emitted.items() if len(at) > 1}
    assert len(repeated) == tied
    for meta, at in repeated.items():
        assert meta[0] == "int.nilpotent" and len(at) == 2, meta
        # partial(identity, vec, ops, ((ONE, (("mode", kind, i, k),) * (l + 1)),)): the kind of its one letter
        assert [items[n][1].args[2][0][1][0][1] for n in at] == ["e", "f"], meta
    # each report's note names the item it came from
    reports = run_relation_items((meta, lambda n=n: n) for n, (meta, _) in enumerate(items))
    ran = {}
    for r in reports:
        ran.setdefault(r[:4], []).append(r.note)
    assert ran == emitted


@pytest.mark.parametrize("preset", ["poly", "l1"])
def test_key_tuples_are_made_once_per_sweep_not_once_per_probe(preset):
    # the builders make each indices and modes tuple once per sweep and the runner
    # keeps it as given, so doubling the probes adds no key object
    from toroidal_duality.cli import collect_items

    counts = []
    for probes in (2, 4):
        items = list(collect_items(*_verify_config(["verify", "all", "--preset", preset, "--probes", str(probes)]))[0])
        keys = [part for (_, indices, modes, _), _ in items for part in (indices, modes)]
        assert all(type(part) is tuple for part in keys)
        counts.append((len(items), len({id(part) for part in keys})))
    (few, distinct), (many, same) = counts
    assert many > few and same == distinct


def test_items_stream_into_the_runner():
    # no sweep holds all its items: at K = 3 (11,052 checks) building every
    # item before the first check traced a 9.1 MB peak, streaming them 5.5 MB
    import tracemalloc

    from toroidal_duality.cli import collect_items, run_verify

    cfg = load_config(preset="poly", overrides={"modes": 3, "probes": 1})
    items, _ = collect_items("toroidal", cfg)
    assert iter(items) is items  # an iterator, not a list
    tracemalloc.start()
    try:
        reports, summary, _ = run_verify("toroidal", cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary["totals"]["passed"] == len(reports) == 11052
    assert peak < 7_000_000, f"{peak / 1e6:.2f} MB"


@pytest.mark.parametrize("target", ["toroidal", "duality", "all"])
def test_runner_frees_the_module_before_the_sort(target, monkeypatch):
    # the last item's thunk holds the module and every word memo it built
    import weakref
    from operator import itemgetter

    from toroidal_duality import duality, reports
    from toroidal_duality.cli import run_verify

    modules, alive_at_sort = [], []
    init = duality.DualityModule.__init__

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        modules.append(weakref.ref(self))

    def tracked_itemgetter(*keys):
        alive_at_sort.append([ref() is not None for ref in modules])
        return itemgetter(*keys)

    monkeypatch.setattr(duality.DualityModule, "__init__", tracked_init)
    monkeypatch.setattr(reports, "itemgetter", tracked_itemgetter)
    cfg = load_config(preset="poly", overrides={"probes": 1, "modes": 1})
    assert run_verify(target, cfg)[1]["status"] == "pass"
    assert alive_at_sort == [[False]]


def test_sweep_holds_one_probe_memo_at_a_time():
    # each operator object keeps only the current probe's words: on the 30
    # poly probes this traced a 3.4 MB peak, against 8.5 MB with a memo kept
    # for every probe until the module is freed
    import tracemalloc

    from toroidal_duality.cli import run_verify

    cfg = load_config(preset="poly", overrides={"probes": 30})
    tracemalloc.start()
    try:
        reports, summary, _ = run_verify("duality", cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary["totals"]["passed"] == len(reports) == 6261
    assert peak < 5_000_000, f"{peak / 1e6:.2f} MB"


def test_runner_takes_an_empty_stream():
    assert run_relation_items(iter(())) == []


def test_workers_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "toroidal", "--preset", "l1", "--workers", "3"])
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "usage:" in err and "--workers" in err and "Traceback" not in err


def test_runner_is_serial_only():
    with pytest.raises(ValueError, match="serial"):
        run_relation_items([], workers=2)


def test_defaults_then_preset_then_flags():
    assert load_config().probes == 8 and load_config(preset="l1").n == 3
    cfg = load_config(preset="l1", overrides={"n": 5, "probes": None})
    assert cfg.n == 5 and cfg.probes == 8 and cfg.family == "l1"  # None leaves a setting as it was


def test_poly_preset_is_the_defaults():
    assert load_config(preset="poly") == load_config()


def test_config_rejects_unknown_keys():
    for key in ("bogus", "workers"):  # the runner is serial; `workers` is no key
        with pytest.raises(ConfigError, match=key):
            load_config(preset="l1", overrides={key: 3})


def test_settings_of_the_wrong_type_are_config_errors():
    for key, value in (("n", "5"), ("q", 2), ("symbolic", "false"), ("probes", True)):
        with pytest.raises(ConfigError, match=f"bad value for {key!r}"):
            load_config(overrides={key: value})


def test_the_environment_cannot_change_a_sweep(tmp_path, monkeypatch):
    argv = ["verify", "toroidal", "--preset", "l1", *FAST, "--relations", "level"]
    plain = tmp_path / "plain.jsonl"
    assert main([*argv, "--out", str(plain)]) == EXIT_PASS
    cfg = _verify_config(argv)
    monkeypatch.setenv("TOROIDAL_PROBES", "7")
    monkeypatch.setenv("TOROIDAL_BOGUS", "1")
    assert _verify_config(argv) == cfg
    env = tmp_path / "env.jsonl"
    assert main([*argv, "--out", str(env)]) == EXIT_PASS
    assert env.read_bytes() == plain.read_bytes()
    assert (tmp_path / "env.summary.json").read_bytes() == (tmp_path / "plain.summary.json").read_bytes()


def test_relation_selection(tmp_path):
    out = tmp_path / "r.jsonl"
    main(["verify", "toroidal", "--preset", "l1", *FAST, "--out", str(out)])
    out2 = tmp_path / "sel.jsonl"
    code = main(["verify", "toroidal", "--preset", "l1", *FAST,
                 "--relations", "2.1.5,2.1.6", "--out", str(out2)])
    assert code == EXIT_PASS
    rels = {json.loads(line)["relation"] for line in out2.read_text().splitlines()}
    assert rels == {"2.1.5", "2.1.6"}
    # the stream is the unfiltered run's records of the kept relations, byte for byte
    kept = [line for line in out.read_text().splitlines(keepends=True)
            if json.loads(line)["relation"] in rels]
    assert out2.read_text() == "".join(kept)


def test_relation_filter_skips_builders_it_cannot_keep(tmp_path, monkeypatch):
    from toroidal_duality import qtoroidal

    full = tmp_path / "full.jsonl"
    main(["verify", "toroidal", "--preset", "l1", *FAST, "--out", str(full)])

    def refuse(*args):
        raise AssertionError("no 2.1.* relation is kept")

    monkeypatch.setattr(qtoroidal, "current_relation_items", refuse)
    out = tmp_path / "level.jsonl"
    code = main(["verify", "toroidal", "--preset", "l1", *FAST, "--relations", "level", "--out", str(out)])
    assert code == EXIT_PASS
    # the stream is the unfiltered run's records of the kept relations, byte for byte
    kept = [line for line in full.read_text().splitlines(keepends=True) if '"relation":"level.' in line]
    assert kept and out.read_text() == "".join(kept)


def test_relation_filter_keeps_every_builder_that_can_match():
    # each relation id, and each stem cut from one, selects exactly the ids it starts with
    from toroidal_duality.cli import collect_items

    def ids(relations):
        cfg = load_config(preset="l1", overrides={"probes": 1, "hecke_probes": 1, "relations": relations})
        return sorted({meta[0] for meta, _ in collect_items("all", cfg)[0]})

    every = ids("")
    for want in sorted(set(every) | {rel[:cut] for rel in every for cut in (2, 4)}):
        assert ids(want) == [rel for rel in every if rel.startswith(want)], want


@pytest.mark.parametrize("target, relations", [
    ("hecke", "nosuch"),
    ("hecke", "2.1."),      # a toroidal relation: the Hecke target has none
    ("duality", "level"),
    ("all", " , nosuch"),
])
def test_relations_that_keep_nothing_are_config_errors(target, relations, tmp_path, capsys):
    out = tmp_path / "x.jsonl"
    code = main(["verify", target, "--preset", "l1", *FAST, "--relations", relations, "--out", str(out)])
    assert code == EXIT_CONFIG and not out.exists()
    err = capsys.readouterr().err
    assert "keeps no relation" in err and repr(target) in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("target, flag, value", [
    ("toroidal", "--modes", "0"),
    ("duality", "--modes", "-1"),
    ("toroidal", "--probes", "0"),
    ("toroidal", "--probes", "-3"),
    ("hecke", "--hecke-probes", "0"),
])
def test_count_flags_below_one_are_config_errors(target, flag, value, capsys):
    code = main(["verify", target, "--preset", "l1", flag, value])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1 and "at least 1" in err


def test_negative_control_outside_the_polynomial_family_fails_to_load():
    # the check sits in load_config, so scripts calling run_verify get it too
    from toroidal_duality.cli import run_verify

    with pytest.raises(ConfigError, match="polynomial"):
        run_verify("hecke", load_config(preset="l1", overrides={"negative_control": True}))
    with pytest.raises(ConfigError, match="polynomial"):
        load_config(preset="poly", overrides={"negative_control": True, "family": "l1"})
    assert load_config(preset="poly", overrides={"negative_control": True}).negative_control


@pytest.mark.parametrize("key, value", [("a", "1/0"), ("b", "0/0")], ids=["1/0", "0/0"])
def test_zero_denominator_module_scalar_is_config_error(capsys, key, value):
    with pytest.raises(ConfigError, match="Fraction"):
        load_config(preset="l1", overrides={key: value}).build_hecke_module()
    assert main(["verify", "hecke", "--preset", "l1", "--hecke-probes", "1", f"--{key}", value]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1 and "Fraction" in err


def _readme_flags():
    """The flags of the "Flags:" line of README.md, in order."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        return re.search(r"^Flags: `([^`]*)`", fh.read(), re.MULTILINE).group(1).split()


def _verify_options(parser):
    """The verify subparser's options, each one setting: every option but --help and --preset."""
    import argparse

    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices["verify"]._actions if a.option_strings and a.dest not in ("help", "preset")]


def test_readme_flags_are_the_verify_options():
    # the "Flags:" list of README.md, the verify subparser and SweepConfig name the same settings
    from toroidal_duality.cli import build_parser
    from toroidal_duality.config import KEY_TYPES

    documented = _readme_flags()
    options = _verify_options(build_parser())
    flags = [flag for action in options for flag in action.option_strings]
    assert sorted(documented) == sorted(flags)
    assert len(documented) == len(set(documented))
    # _cmd_verify reads each setting as the flag attribute of the same name, one flag per setting
    assert sorted(action.dest for action in options) == sorted(KEY_TYPES)
    assert all(len(action.option_strings) == 1 for action in options)


@pytest.mark.parametrize("argv", [["--prob", "3"], ["--neg"], ["--hecke", "2"], ["--sym"],
                                  ["--prob", "3", "--neg", "--hecke", "2"]])
def test_abbreviated_flags_are_refused(argv, capsys):
    # a flag is spelled out in full: a prefix of one, however unambiguous, is an unrecognized argument
    from toroidal_duality.cli import build_parser

    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["verify", "hecke", *argv])
    assert exc.value.code == EXIT_CONFIG and "unrecognized arguments" in capsys.readouterr().err


def test_every_readme_flag_parses_spelled_out():
    from toroidal_duality.cli import build_parser

    parser = build_parser()
    by_flag = {action.option_strings[0]: action for action in _verify_options(parser)}
    for flag in _readme_flags():
        action = by_flag[flag]
        if action.nargs == 0:  # a switch
            assert getattr(parser.parse_args(["verify", "hecke", flag]), action.dest) is True
            continue
        value = sorted(action.choices)[0] if action.choices else "3"
        parsed = getattr(parser.parse_args(["verify", "hecke", flag, value]), action.dest)
        assert parsed == (action.type or str)(value), flag


def test_a_hecke_sweep_with_fewer_probes_than_asked_warns(tmp_path, capsys):
    # at window 3 the probe box holds 25 keys, so 27 probes are made whether 30 or 1,000 are asked
    out = tmp_path / "w3.jsonl"
    assert main(["verify", "hecke", "--window", "3", "--hecke-probes", "30", "--out", str(out)]) == EXIT_PASS
    warning, = capsys.readouterr().err.splitlines()
    assert warning.startswith("warning: ") and "ran 27 probes" in warning and "30 asked" in warning
    summary = json.loads((tmp_path / "w3.summary.json").read_text())
    assert summary["status"] == "pass" and summary["config"]["hecke_probes"] == 30
    assert len(summary["probes"]) == 27


@pytest.mark.parametrize("argv", [
    ["hecke"],  # the poly defaults make all 50 probes
    ["hecke", "--preset", "l1", "--hecke-probes", "30"],  # the l1 module has one key, so one probe
    ["duality", "--probes", "1", "--modes", "1"],  # the deliberate cap of 12 Hecke probes
], ids=["poly", "l1", "duality-cap"])
def test_a_hecke_sweep_with_every_probe_asked_is_silent(argv, capsys):
    assert main(["verify", *argv]) == EXIT_PASS
    assert capsys.readouterr().err == ""


# sha256 of the canonical stream and summary of
# `verify toroidal --preset poly --symbolic --probes 1 --modes 1`, a pinned
# sweep whose coefficients are Laurent polynomials in formal q, d.
SYMBOLIC_STREAM_SHA256 = "c7c8d39c6705038dc6504c8181e4267d2de16e5c12b0a9b43310eaab59afd95a"
SYMBOLIC_SUMMARY_SHA256 = "588076cb0ebcaab96d64d5f70bc0d16229750fa8991d7cf328f96bd6b41ce862"


def test_symbolic_sweep_golden_digests(tmp_path, monkeypatch):
    out = tmp_path / "sym.jsonl"
    code = main(["verify", "toroidal", "--preset", "poly", "--symbolic",
                 "--probes", "1", "--modes", "1", "--out", str(out)])
    assert code == EXIT_PASS
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SYMBOLIC_STREAM_SHA256
    summary = (tmp_path / "sym.summary.json").read_bytes()
    assert hashlib.sha256(summary).hexdigest() == SYMBOLIC_SUMMARY_SHA256


# the same for `verify duality --preset poly --symbolic --probes 2 --modes 1`
# (421 checks): the braid, rotation and translation intertwiners and the
# operator columns with formal q, d, where the tables' unit-coefficient
# shortcuts meet Laurent coefficients.
SYMBOLIC_DUALITY_STREAM_SHA256 = "837eb828fc95ee9c076b24482cb640b8aaef746f7e1b56d333fa0f75fd61d2e1"
SYMBOLIC_DUALITY_SUMMARY_SHA256 = "3f2dcd0861368300e2537c4aee1b52b75d02eb0fdf938918c4435520b3bc62eb"


def test_symbolic_duality_sweep_golden_digests(tmp_path, monkeypatch):
    out = tmp_path / "symdual.jsonl"
    code = main(["verify", "duality", "--preset", "poly", "--symbolic",
                 "--probes", "2", "--modes", "1", "--out", str(out)])
    assert code == EXIT_PASS
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SYMBOLIC_DUALITY_STREAM_SHA256
    summary = (tmp_path / "symdual.summary.json").read_bytes()
    assert hashlib.sha256(summary).hexdigest() == SYMBOLIC_DUALITY_SUMMARY_SHA256


# the same for `verify duality --n 5 --l 3 --window 8 --family polynomial
# --symbolic --probes 1 --modes 2 --hecke-probes 3` (289 checks): at l = 3
# a k-mode column has up to three carrier slots, and every q^a d^b of the
# columns and of the closed-form sides is formal.
SYMBOLIC_DUALITY_L3_STREAM_SHA256 = "50343c06d85f6bc930406b105831bf598687dfeef5a6d5b9a1e5aaac58c0e55b"
SYMBOLIC_DUALITY_L3_SUMMARY_SHA256 = "39ad1a3d6e6795a4264903f6b4d6689ee8d78dfd98ab306e9440e11c03603173"


def test_symbolic_duality_l3_sweep_golden_digests(tmp_path, monkeypatch):
    out = tmp_path / "symdual3.jsonl"
    code = main(["verify", "duality", "--n", "5", "--l", "3", "--window", "8", "--family", "polynomial",
                 "--symbolic", "--probes", "1", "--modes", "2", "--hecke-probes", "3", "--out", str(out)])
    assert code == EXIT_PASS
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SYMBOLIC_DUALITY_L3_STREAM_SHA256
    summary = (tmp_path / "symdual3.summary.json").read_bytes()
    assert hashlib.sha256(summary).hexdigest() == SYMBOLIC_DUALITY_L3_SUMMARY_SHA256


# the same for `verify hecke --preset poly --symbolic` (950 checks): the
# defining, Q-presentation and segment suites on the polynomial module with
# formal q, d, so every relation's coefficient is a Laurent polynomial.
SYMBOLIC_HECKE_STREAM_SHA256 = "290f4ecb72dfe03ee884e578ff4bc0f5473357a853bae050e56e304b791e21eb"
SYMBOLIC_HECKE_SUMMARY_SHA256 = "b053cfb2dab93d2f7cf0dfc33b520bf2a28afdd98d73c16655ae3da89fb63151"


def test_symbolic_hecke_sweep_golden_digests(tmp_path, monkeypatch):
    out = tmp_path / "symhecke.jsonl"
    code = main(["verify", "hecke", "--preset", "poly", "--symbolic", "--out", str(out)])
    assert code == EXIT_PASS
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SYMBOLIC_HECKE_STREAM_SHA256
    summary = (tmp_path / "symhecke.summary.json").read_bytes()
    assert hashlib.sha256(summary).hexdigest() == SYMBOLIC_HECKE_SUMMARY_SHA256


def test_summary_manifest(tmp_path):
    out = tmp_path / "r.jsonl"
    main(["verify", "hecke", "--preset", "poly", *FAST, "--out", str(out)])
    summary = json.loads((tmp_path / "r.summary.json").read_text())
    assert summary["module"]["family"] == "polynomial"
    assert summary["module"]["xi"] == "32/243"
    assert "h000" in summary["probes"]


def test_every_manifest_probe_id_names_the_vector_its_records_were_checked_on():
    # `all` runs the Hecke suites on 50 Hecke probes and the reconstruction
    # suite on at most 12; the last two probes of a list are combinations
    # that depend on its length, so both suites must draw from one list
    from toroidal_duality.cli import collect_items
    from toroidal_duality.duality import dvec_to_json, hvec_to_json

    items, manifest = collect_items("all", load_config(preset="poly"))
    checked = Counter()
    for (relation, _, _, pid), thunk in items:
        if pid in manifest["probes"]:
            vec = thunk.args[0]  # every builder binds the probe vector first
            assert (hvec_to_json(vec) if pid.startswith("h") else dvec_to_json(vec)) == manifest["probes"][pid], \
                (relation, pid)
            checked[relation.split(".")[0]] += 1
    assert {"defining", "qpres", "segment", "recon", "psi", "reg"} <= checked.keys()


@pytest.mark.parametrize("sweep", ["all --preset poly", "all --preset l1",
                                   "hecke --preset poly --negative-control --hecke-probes 10"])
def test_every_identity_check_is_stated_as_data(sweep):
    # every thunk but the level test's set test is partial(identity, vec, ops, *residuals):
    # the probe vector, then the one Hecke module or its one duality module, then
    # residuals of (coefficient, word) terms, a word being letters or a closed form
    from toroidal_duality.cli import collect_items
    from toroidal_duality.duality import DualityModule, dvec_to_json, hvec_to_json
    from toroidal_duality.hecke import PolynomialModule, UnitModule
    from toroidal_duality.reports import identity

    items, manifest = collect_items(*_verify_config(["verify", *sweep.split()]))
    bound, modules, stated = {}, set(), Counter()
    for (relation, _, _, probe), thunk in items:
        if relation == "level.weights":
            continue
        assert thunk.func is identity and not thunk.keywords, relation
        vec, ops, *residuals = thunk.args
        pid = probe.rpartition("|")[2]  # an intertwining label is "<generator>|<probe id>"
        if pid in manifest["probes"]:  # else a basis slot vector, "basis" or "m<module key>"
            assert bound.setdefault(pid, vec) is vec, (relation, pid)  # one vector per probe
            assert (hvec_to_json(vec) if pid.startswith("h") else dvec_to_json(vec)) == manifest["probes"][pid]
        assert isinstance(ops, (PolynomialModule, UnitModule) if pid.startswith("h") else DualityModule), relation
        modules.add(ops)
        assert residuals, relation
        for expr in residuals:
            assert expr.__class__ is tuple and expr, relation
            for term in expr:
                assert term.__class__ is tuple and len(term) == 2, relation
                c, word = term
                assert not callable(c), relation
                assert callable(word) or word.__class__ is tuple and all(x.__class__ is tuple for x in word), relation
        stated[relation.split(".")[0]] += 1
    hecke = [m for m in modules if not isinstance(m, DualityModule)]
    assert len(hecke) == 1 and all(m.h is hecke[0] for m in modules - set(hecke))
    assert len(modules) == (1 if sweep.startswith("hecke") else 2)
    assert stated.keys() >= ({"defining", "qpres"} if sweep.startswith("hecke") else
                             {"defining", "qpres", "2", "int", "cc", "psi", "braid", "rotation",
                              "translation", "reg", "recon"})


def test_config_summary_echo(tmp_path):
    out = tmp_path / "r.jsonl"
    main(["verify", "toroidal", "--preset", "l1", *FAST, "--out", str(out)])
    summary = json.loads((tmp_path / "r.summary.json").read_text())
    assert summary["config"]["target"] == "toroidal"
    assert summary["config"]["n"] == 3
    assert summary["status"] == "pass"
    assert summary["totals"]["passed"] == summary["totals"]["checked"]


def test_benchmark_workloads_match_recorded_digests(tmp_path, monkeypatch):
    # the four perfbench workloads at their default seed, against the stream
    # and summary sha256 recorded in perfbench/baseline.json (read only)
    workloads = _benchmark_workloads()
    assert len(workloads) == 4
    for name, spec in sorted(workloads.items()):
        out = tmp_path / f"{name}.jsonl"
        assert main(spec["argv"] + ["--seed", "11", "--out", str(out)]) == EXIT_PASS, name
        summary = (tmp_path / f"{name}.summary.json").read_bytes()
        got = {"stream": hashlib.sha256(out.read_bytes()).hexdigest(),
               "summary": hashlib.sha256(summary).hexdigest()}
        assert got == spec["digests"], name


def test_benchmark_tracer_finds_every_patch_site(monkeypatch):
    # perfbench/layers.py patches names by getattr at each of their import
    # sites (apply_word, apply_expr, dvec_add, theta_expand in duality, ...);
    # a dropped import or a renamed operator would fail every traced run
    import importlib
    from types import SimpleNamespace

    from toroidal_duality import reports

    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    run, layers = importlib.import_module("run"), importlib.import_module("layers")
    pkg = SimpleNamespace(**{name: importlib.import_module(f"toroidal_duality.{name}")
                             for name in run.MODULES})
    tracer = layers.Tracer()
    sites = [(owner, name, getattr(owner, name)) for owner, name, _ in tracer.patches(pkg)]
    with tracer.installed(pkg):
        assert reports.run_relation_items([], workers=1) == []
        assert all(getattr(owner, name) is not fn for owner, name, fn in sites)
    assert all(getattr(owner, name) is fn for owner, name, fn in sites)


# -- planted faults in the stepped powers, Y_j, the mode columns, the theta series and straightening --

DUALITY_L3 = ["duality", "--n", "5", "--l", "3", "--q", "2", "--d", "3", "--window", "8",
              "--family", "polynomial", "--modes", "3", "--hecke-probes", "7"]


@pytest.mark.parametrize("source, line, planted, argv", [
    # Y^e becomes Y^(e-2): the last step of a stepped power applies the inverse letter
    ("hecke.py", "vec = apply_letter(self, (kind, idx, step), dict(items))",
     "vec = apply_letter(self, (kind, idx, -step), dict(items))",
     [*DUALITY_L3, "--probes", "5"]),
    # every slot takes part r with the i-slot's theta coefficient and spectral power
    ("duality.py", "dvec_add(grown[t + r], hv_r.items(), scale[r])",
     "dvec_add(grown[t + r], hv_r.items(), self._theta_scales(sign, i, top)[0][r])",
     ["toroidal", "--preset", "poly"]),
    # every theta coefficient past the first takes q^(m(r-2)) for q^(m(r-1))
    ("series.py", "m * (r - 1)", "m * (r - 2)", ["toroidal", "--preset", "poly"]),
    # the e/f chain sum leaves out the empty chain, so Y_m^-k misses the module key itself
    ("duality.py", "base = {hkey: ONE}", "base = {}", ["toroidal", "--preset", "poly"]),
    # Y_j is built on T_(j-1) in place of T_(j-1)^-1
    ("hecke.py", 'tinv = ("T", idx - 1, -1)', 'tinv = ("T", idx - 1, 1)', ["hecke", "--preset", "poly"]),
    # the symmetrizer of a block of k equal entries is normalized by 1/[k]! without its q^(-k(k-1)/2)
    ("duality.py", "coeff = sc_mul(coeff, sc_mul(self.qd(-size * (size - 1) // 2, 0), self._qfact_inv[size]))",
     "coeff = sc_mul(coeff, self._qfact_inv[size])", ["toroidal", "--preset", "poly"]),
    # the symmetrizer leaves out the longest suffix chain T_(m-1)...T_1 of each factor
    ("duality.py", "for t in range(1, m):", "for t in range(1, m - 1):", ["toroidal", "--preset", "poly"]),
    # a descent costs q in place of q^-1
    ("duality.py", "coeff = sc_mul(coeff, self.qd(-1, 0))", "coeff = sc_mul(coeff, self.qd(1, 0))",
     ["toroidal", "--preset", "poly"]),
], ids=["stepped-power-sign", "kmode-wrong-slot-scale", "theta-closed-form", "efmode-no-empty-chain",
        "y-step-uninverted-t", "symmetrizer-no-q-power", "symmetrizer-no-longest-chain", "descent-cost-q"])
def test_planted_power_faults_fail_verify(tmp_path, source, line, planted, argv):
    # the fault goes into a copy of the package, run in a child process
    package = tmp_path / "toroidal_duality"
    shutil.copytree(Path(toroidal_duality.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    text = (package / source).read_text()
    assert text.count(line) == 1
    (package / source).write_text(text.replace(line, planted))
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}
    done = subprocess.run([sys.executable, "-m", "toroidal_duality.cli", "verify", *argv, "--seed", "11"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == EXIT_FAIL, done.stderr
    assert re.search(r" fail [1-9]", done.stdout) and "Traceback" not in done.stderr


def test_bench_pairs_scale_takes_one_verify_command_without_out():
    # parsing only: no sweep or git command starts
    import importlib.util

    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_pairs.py")
    spec = importlib.util.spec_from_file_location("bench_pairs", script)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    args = bench_pairs.parse_args(["--parent", "HEAD", "--pairs", "2", "--scale",
                                   "verify toroidal --preset poly --n 5 --l 3 --window 10 --probes 112"])
    assert args.scale == ["verify", "toroidal", "--preset", "poly", "--n", "5", "--l", "3",
                          "--window", "10", "--probes", "112"] and args.pairs == 2
    assert bench_pairs.parse_args(["--parent", "HEAD"]).scale is None
    for bad in ("report json x.jsonl", "verify hecke --out x.jsonl", "verify hecke --out=x.jsonl", ""):
        with pytest.raises(SystemExit) as exc:
            bench_pairs.parse_args(["--parent", "HEAD", "--scale", bad])
        assert exc.value.code == 2


def test_reach_census_lists_the_lines_a_sweep_does_not_run():
    # one tiny l1 sweep: it never builds the polynomial module, and runs load_config to its end
    import importlib.util
    import inspect

    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "reach_census.py")
    spec = importlib.util.spec_from_file_location("reach_census", script)
    reach_census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach_census)
    tracing = sys.gettrace()
    unreached = reach_census.census([["verify", "hecke", "--preset", "l1", "--hecke-probes", "1"]])
    assert sys.gettrace() is tracing
    from toroidal_duality import config, hecke

    hecke_source = Path(hecke.__file__).read_text().splitlines()
    assert "PolynomialModule.letter_cached" in unreached["hecke.py"].values()
    refusals = [line for line, fn in unreached["hecke.py"].items() if fn == "UnitModule.__init__"]
    assert refusals and all("raise ValueError" in hecke_source[line - 1] for line in refusals)  # nothing else
    end = inspect.getsourcelines(config.load_config)[1] + len(inspect.getsource(config.load_config).splitlines()) - 1
    assert end not in unreached["config.py"]  # `return cfg` ran
    assert inspect.getsourcelines(hecke.PolynomialModule.letter_cached)[1] not in unreached["hecke.py"]  # a header
    for name, lines in unreached.items():
        source = Path(config.__file__).with_name(name).read_text().splitlines()
        assert not any(source[line - 1].lstrip().startswith(("def ", "class ", "@")) for line in lines), name
