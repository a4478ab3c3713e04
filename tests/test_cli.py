"""CLI contract: exit codes, config precedence, canonical report streams."""

import hashlib
import json
import os

import pytest

from toroidal_duality.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_PASS, main
from toroidal_duality.config import ConfigError, load_config
from toroidal_duality.reports import run_relation_items

FAST = ["--probes", "3", "--hecke-probes", "6", "--modes", "1", "--seed", "11"]


def test_verify_hecke_passes(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    code = main(["verify", "hecke", "--preset", "poly", *FAST, "--out", str(out)])
    assert code == EXIT_PASS
    assert "fail 0" in capsys.readouterr().out
    assert out.exists() and (tmp_path / "r.summary.json").exists()


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


def test_determinism_across_runs(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["verify", "toroidal", "--preset", "l1", *FAST, "--out", str(a)])
    main(["verify", "toroidal", "--preset", "l1", *FAST, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    sa = (tmp_path / "a.summary.json").read_bytes()
    sb = (tmp_path / "b.summary.json").read_bytes()
    assert sa == sb


def test_workers_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "toroidal", "--preset", "l1", "--workers", "3"])
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "usage:" in err and "--workers" in err and "Traceback" not in err


def test_runner_is_serial_only():
    with pytest.raises(ValueError, match="serial"):
        run_relation_items([], workers=2)


def test_config_file_and_env_and_flag_precedence(tmp_path, monkeypatch):
    cfgfile = tmp_path / "sweep.ini"
    cfgfile.write_text(
        "[params]\nn = 4\nl = 2\nq = 2\nd = 3\n"
        "[sweep]\nfamily = polynomial\nwindow = 8\nmodes = 2\nprobes = 5\nseed = 1\n"
    )
    cfg = load_config(path=str(cfgfile))
    assert cfg.n == 4 and cfg.probes == 5 and cfg.family == "polynomial"
    monkeypatch.setenv("TOROIDAL_PROBES", "7")
    cfg = load_config(path=str(cfgfile))
    assert cfg.probes == 7  # env beats file
    cfg = load_config(path=str(cfgfile), overrides={"probes": 9})
    assert cfg.probes == 9  # flags beat env


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfgfile = tmp_path / "sweep.ini"
    for key in ("bogus", "workers"):  # the runner is serial; `workers` is no key
        cfgfile.write_text(f"[sweep]\n{key} = 3\n")
        with pytest.raises(ConfigError, match=key):
            load_config(path=str(cfgfile))
        code = main(["verify", "toroidal", "--preset", "l1", "--config", str(cfgfile)])
        assert code == EXIT_CONFIG
        assert key in capsys.readouterr().err


def test_relation_selection(tmp_path):
    out = tmp_path / "r.jsonl"
    main(["verify", "toroidal", "--preset", "l1", *FAST, "--out", str(out)])
    os.environ["TOROIDAL_RELATIONS"] = "2.1.5,2.1.6"
    try:
        out2 = tmp_path / "sel.jsonl"
        main(["verify", "toroidal", "--preset", "l1", *FAST, "--out", str(out2)])
    finally:
        del os.environ["TOROIDAL_RELATIONS"]
    rels = {json.loads(line)["relation"] for line in out2.read_text().splitlines()}
    assert rels == {"2.1.5", "2.1.6"}

    out3 = tmp_path / "flag.jsonl"
    code = main(["verify", "toroidal", "--preset", "l1", *FAST,
                 "--relations", "2.1.5,2.1.6", "--out", str(out3)])
    assert code == EXIT_PASS
    assert out3.read_bytes() == out2.read_bytes()


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


def test_unknown_environment_variable_is_config_error(monkeypatch, capsys):
    for name in ("TOROIDAL_PROBE", "TOROIDAL_WORKERS", "TOROIDAL_probes"):
        with pytest.raises(ConfigError, match=name):
            load_config(preset="l1", env={name: "0"})
        monkeypatch.setenv(name, "0")
        code = main(["verify", "toroidal", "--preset", "l1", "--relations", "level"])
        monkeypatch.delenv(name)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert name in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("text", ["n = 4\n", "[params]\nn = 4\ngarbage line\n"],
                         ids=["no-section-header", "line-without-equals"])
def test_malformed_config_file_is_config_error(tmp_path, capsys, text):
    cfgfile = tmp_path / "sweep.ini"
    cfgfile.write_text(text)
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(path=str(cfgfile), env={})
    code = main(["verify", "toroidal", "--preset", "l1", "--config", str(cfgfile)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cannot parse" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_count_keys_checked_from_environment_and_file(tmp_path):
    with pytest.raises(ConfigError, match="modes"):
        load_config(preset="l1", env={"TOROIDAL_MODES": "0"})
    cfgfile = tmp_path / "sweep.ini"
    cfgfile.write_text("[sweep]\nhecke_probes = 0\n")
    with pytest.raises(ConfigError, match="hecke_probes"):
        load_config(path=str(cfgfile), env={})


# sha256 of the canonical stream and summary of
# `verify toroidal --preset poly --symbolic --probes 1 --modes 1`, a pinned
# sweep whose coefficients are Laurent polynomials in formal q, d.
SYMBOLIC_STREAM_SHA256 = "c7c8d39c6705038dc6504c8181e4267d2de16e5c12b0a9b43310eaab59afd95a"
SYMBOLIC_SUMMARY_SHA256 = "588076cb0ebcaab96d64d5f70bc0d16229750fa8991d7cf328f96bd6b41ce862"


def test_symbolic_sweep_golden_digests(tmp_path, monkeypatch):
    for key in [k for k in os.environ if k.startswith("TOROIDAL_")]:
        monkeypatch.delenv(key)
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
    for key in [k for k in os.environ if k.startswith("TOROIDAL_")]:
        monkeypatch.delenv(key)
    out = tmp_path / "symdual.jsonl"
    code = main(["verify", "duality", "--preset", "poly", "--symbolic",
                 "--probes", "2", "--modes", "1", "--out", str(out)])
    assert code == EXIT_PASS
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SYMBOLIC_DUALITY_STREAM_SHA256
    summary = (tmp_path / "symdual.summary.json").read_bytes()
    assert hashlib.sha256(summary).hexdigest() == SYMBOLIC_DUALITY_SUMMARY_SHA256


def test_summary_manifest(tmp_path):
    out = tmp_path / "r.jsonl"
    main(["verify", "hecke", "--preset", "poly", *FAST, "--out", str(out)])
    summary = json.loads((tmp_path / "r.summary.json").read_text())
    assert summary["module"]["family"] == "polynomial"
    assert summary["module"]["xi"] == "32/243"
    assert "h000" in summary["probes"]


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
    for key in [k for k in os.environ if k.startswith("TOROIDAL_")]:
        monkeypatch.delenv(key)
    baseline = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "baseline.json")
    with open(baseline, encoding="utf-8") as fh:
        workloads = json.load(fh)["workloads"]
    assert len(workloads) == 4
    for name, spec in sorted(workloads.items()):
        out = tmp_path / f"{name}.jsonl"
        assert main(spec["argv"] + ["--seed", "11", "--out", str(out)]) == EXIT_PASS, name
        summary = (tmp_path / f"{name}.summary.json").read_bytes()
        got = {"stream": hashlib.sha256(out.read_bytes()).hexdigest(),
               "summary": hashlib.sha256(summary).hexdigest()}
        assert got == spec["digests"], name
