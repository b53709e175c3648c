"""List the statements of ``src/sgforge`` that no test executes.

    python3 tools/linecov.py [pytest args]

Puts ``src`` first on ``sys.path`` and on ``PYTHONPATH``, installs a
``sys.settrace`` tracer (and the same for new threads) that records line
events only in frames whose code lives under ``src/sgforge``, and runs
``pytest.main`` with the given arguments.  A statement is an AST
statement line of a module there, leaving out docstrings, ``def``,
``class``, imports and ``global``.  It then prints, per module, how many
of its statements ran and each one that did not, with its source line,
and exits with pytest's exit code.

Only this process is traced: code that a test runs in a pool worker, or
through a CLI subprocess (``tests/test_acceptance.py`` and
``TestEntryPoint``), counts as not executed.  Tracing slows the tests
several times over: ``-m "not slow" --ignore=tests/test_acceptance.py``
took 78 s traced against 17 s untraced (2 vCPUs, Python 3.11.7).  Needs
only the standard library and pytest.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "sgforge"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
           ast.ImportFrom, ast.Global, ast.Nonlocal)


def statements(path: Path) -> dict[int, str]:
    """{line: source line} of every counted statement in ``path``."""
    text = path.read_text()
    source = text.splitlines()
    found = {}
    for node in ast.walk(ast.parse(text, str(path))):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue                                  # a docstring
        found[node.lineno] = source[node.lineno - 1].strip()
    return found


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    # The CLI tests' subprocesses import the same tree, untraced.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    import pytest

    prefix = str(PACKAGE) + os.sep
    executed: dict[str, set[int]] = {}

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        lines = executed.setdefault(name, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print()
    for path in sorted(PACKAGE.glob("*.py")):
        wanted = statements(path)
        missed = sorted(set(wanted) - executed.get(str(path), set()))
        rel = path.relative_to(ROOT)
        print(f"{rel}: {len(wanted) - len(missed)} of {len(wanted)} "
              f"statements executed")
        for line in missed:
            print(f"  {rel}:{line}: {wanted[line]}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
