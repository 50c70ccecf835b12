#!/usr/bin/env python3
"""Name every ``raise`` statement in ``src/tgkit`` that the test suite never runs.

    python scripts/check_raises.py

Runs ``pytest tests`` in this process under a line tracer that records only
lines of ``src/tgkit``, finds each ``raise`` statement there with ``ast``,
and prints ``<file>:<line>: <statement>`` for each one no test ran.  A
statement counts as run when any of its lines ran: a ``raise`` is one
statement, so none of its lines runs without it.  Lines that only child
processes run (``python -m tgkit`` started by a test) are not seen, so a
refusal needs an in-process test.  Exit code: 0 when every ``raise`` ran,
1 when one did not, pytest's own code when the suite fails.  The tracer
makes the suite run about 1.7 times as long.
"""
import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "tgkit"


def raise_lines() -> dict:
    """file -> {first line of each raise statement: the lines it spans}."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        out[str(path)] = {node.lineno: range(node.lineno, node.end_lineno + 1)
                          for node in ast.walk(tree) if isinstance(node, ast.Raise)}
    return out


def run_suite(files) -> tuple:
    """(pytest's exit code, {file: the lines of it that ran}) for ``pytest tests``."""
    ran = {path: set() for path in files}

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename in ran else None

    sys.path.insert(0, str(SRC))
    # children started by the tests import the same tree
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC),
                                                             os.environ.get("PYTHONPATH")]))
    sys.settrace(trace_calls)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    return code, ran


def main() -> int:
    raises = raise_lines()
    code, ran = run_suite(raises)
    if code != 0:
        print(f"check_raises: the suite failed (pytest exit code {code})", file=sys.stderr)
        return int(code)
    missed = [(path, first) for path, spans in raises.items() for first, span in spans.items()
              if ran[path].isdisjoint(span)]
    for path, first in missed:
        line = Path(path).read_text(encoding="utf-8").splitlines()[first - 1].strip()
        print(f"{Path(path).relative_to(ROOT)}:{first}: {line}")
    total = sum(map(len, raises.values()))
    print(f"{total - len(missed)} of {total} raise statements in src/tgkit ran under the suite")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
