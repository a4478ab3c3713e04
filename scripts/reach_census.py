#!/usr/bin/env python3
"""
Reach census: run a fixed list of command-line sweeps in this process
under `sys.settrace`, then print every line of `src/toroidal_duality`
that none of them ran, by file and by function.  A line counts when it
holds code of a function body (nested functions, lambdas and
comprehensions included); `def` and `class` header lines and module-level
code, which runs on import, are left out.

Each sweep is `cli.main(argv)`, its stream written to a temporary
directory, and the `report` commands then read the first sweep's stream.
Tracing slows every sweep down several times over; the full list took
20 s on a 2-vCPU machine.

Usage:
    python scripts/reach_census.py
"""

import ast
import contextlib
import inspect
import io
import os
import sys
import tempfile
from pathlib import Path

import toroidal_duality
from toroidal_duality import cli

PACKAGE = Path(toroidal_duality.__file__).resolve().parent
COMPREHENSIONS = ("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>")

L3 = ["--n", "5", "--l", "3"]
SWEEPS = [
    ["verify", "all", "--preset", "poly"],
    ["verify", "all", "--preset", "l1"],
    ["verify", "all", "--preset", "poly", "--window", "2"],
    ["verify", "hecke", "--preset", "poly", "--negative-control"],
    ["verify", "hecke", "--preset", "poly", "--symbolic"],
    ["verify", "hecke", *L3, "--window", "7", "--hecke-probes", "7"],
    ["verify", "hecke", "--n", "6", "--l", "4", "--window", "8"],
    ["verify", "toroidal", "--preset", "poly", "--modes", "3", "--probes", "1"],
    ["verify", "toroidal", "--preset", "poly", "--symbolic", "--probes", "1", "--modes", "1"],
    ["verify", "toroidal", "--preset", "l1", "--relations", "2.1.5,level"],
    ["verify", "duality", "--preset", "poly", "--symbolic", "--probes", "16", "--modes", "1"],
    ["verify", "duality", *L3, "--symbolic", "--probes", "1", "--modes", "2", "--hecke-probes", "3"],
    ["verify", "duality", *L3, "--window", "8", "--modes", "3", "--probes", "5", "--hecke-probes", "7"],
    ["verify", "duality", "--n", "7", "--probes", "1"],
]


def function_lines(path):
    """{line: qualified name of the innermost function holding code there} for one source file."""
    source = path.read_text(encoding="utf-8")
    headers = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [dec.lineno for dec in node.decorator_list])
            headers.update(range(first, node.body[0].lineno))
    owner = {}
    pending = [(compile(source, str(path), "exec"), False)]  # (code, whether it runs only when called)
    while pending:  # outer code first, so a line goes to the innermost code holding it
        code, called = pending.pop()
        if called:
            for _, _, line in code.co_lines():
                if line is not None and line not in headers:
                    owner[line] = code.co_qualname
        for inner in filter(inspect.iscode, code.co_consts):
            # a module or class body runs on import, and so does a comprehension in one
            pending.append((inner, called or (bool(inner.co_flags & inspect.CO_NEWLOCALS)
                                              and inner.co_name not in COMPREHENSIONS)))
    return owner


def census(sweeps):
    """{file: {line: function}} of the package's function lines that none of `sweeps` ran."""
    ran = set()
    prefix = str(PACKAGE) + os.sep

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return tracer

    previous = sys.gettrace()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        streams = [os.path.join(tmp, f"s{n}.jsonl") for n in range(len(sweeps))]
        commands = [[*argv, "--out", out] for argv, out in zip(sweeps, streams)]
        commands += [["report", fmt, streams[0]] for fmt in ("json", "table")]
        sys.settrace(tracer)
        try:
            for argv in commands:
                cli.main(argv)
        finally:
            sys.settrace(previous)
    unreached = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = {line: fn for line, fn in function_lines(path).items() if (str(path), line) not in ran}
        if lines:
            unreached[path.name] = dict(sorted(lines.items()))
    return unreached


def main():
    unreached = census(SWEEPS)
    total = 0
    for name, lines in unreached.items():
        source = (PACKAGE / name).read_text(encoding="utf-8").splitlines()
        print(f"{name}: {len(lines)} lines")
        by_function = {}  # a nested function's lines can sit between its owner's
        for line, fn in lines.items():
            by_function.setdefault(fn, []).append(line)
        for fn, fn_lines in by_function.items():
            print(f"  {fn}")
            for line in fn_lines:
                print(f"    {line:4d}  {source[line - 1].strip()}")
        total += len(lines)
    print(f"{total} lines in {len(unreached)} files that no sweep runs ({len(SWEEPS)} sweeps, report json and table)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
