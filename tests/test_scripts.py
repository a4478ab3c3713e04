"""The scripts under scripts/ run and report success."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_symbolic_spotcheck_finds_every_residual_zero(capsys):
    assert _load("symbolic_spotcheck").main() == 0
    out = capsys.readouterr().out
    assert out.count("all zero") == 2 and "NONZERO" not in out
