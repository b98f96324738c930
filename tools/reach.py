"""Print every statement in a src/buyintent function body that the tests never run.

    python3 tools/reach.py [PYTEST_ARGS...]

It runs the test suite under tests/ in this process with a stdlib
`sys.settrace` line tracer, without the two ordering verdicts of
tests/test_acceptance.py (they take most of the suite's time), and
then prints one `path:line: source` line for each statement of a
function or method body under src/buyintent/ that never ran, in path
and line order. Docstrings, `global` and `nonlocal` are not statements
that run. A statement counts as reached when any line of its header
ran: every line of a simple statement, and the lines before the body of
a compound one, so a condition spread over several lines counts by
whichever of them ran. Code that runs only in a subprocess is not seen.

Extra arguments go to pytest after the defaults. pytest's output and a
summary line go to stderr; stdout holds only the unreached statements.
The exit code is 0 when every statement ran and every test passed, 1
otherwise, and 2 when a test removed the tracer (by setting its own, or
by recursing so deep that the tracer hit the recursion limit): the
record is then incomplete, and the summary names each such test. The
tracer is set again after it, so later tests are still recorded. The
whole suite takes about 100 s on 2 cores.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "buyintent"
ORDERING_VERDICTS = (
    "tests/test_acceptance.py::test_model_family_ordering_on_planted_corpus",
    "tests/test_acceptance.py::test_pretraining_beats_random_initialization",
)


def _is_docstring(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str)


def _body_statements(body: list[ast.stmt]):
    """Each statement of body and of the blocks nested in it, but not
    of nested function or class definitions (their own walk finds
    those)."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        blocks = [getattr(stmt, name, []) for name in ("body", "orelse", "finalbody")]
        blocks += [handler.body for handler in getattr(stmt, "handlers", [])]
        for block in blocks:
            yield from _body_statements(block)


def _header_lines(stmt: ast.stmt) -> range:
    """The lines whose line event means stmt ran: before its body for a
    compound statement (decorators included), all of it otherwise."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    body = getattr(stmt, "body", None)
    last = max(first, body[0].lineno - 1) if body else stmt.end_lineno
    return range(first, last + 1)


def function_statements(tree: ast.Module) -> list[ast.stmt]:
    """Every statement in a function or method body of the module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body[1:] if _is_docstring(node.body[0]) else node.body
            out += [s for s in _body_statements(body) if not isinstance(s, (ast.Global, ast.Nonlocal))]
    return out


def run_traced(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]], list[str]]:
    """Run pytest under the line tracer: its exit code, the (file, line)
    pairs that ran in src/buyintent, and the tests after which the
    tracer was found removed (and set again)."""
    ran: set[tuple[str, int]] = set()
    dropped: list[str] = []
    in_src: dict[str, bool] = {}
    prefix = str(SRC) + os.sep

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in in_src:
            in_src[name] = os.path.realpath(name).startswith(prefix)
        return local if in_src[name] else None

    class Watch:
        @pytest.hookimpl(hookwrapper=True)
        def pytest_runtest_protocol(self, item):
            yield
            if sys.gettrace() is not tracer:
                dropped.append(item.nodeid)
                sys.settrace(tracer)

    os.chdir(ROOT)
    sys.settrace(tracer)
    try:
        args = ["-q", "-p", "no:cacheprovider", *(f"--deselect={t}" for t in ORDERING_VERDICTS), *pytest_args]
        code = pytest.main(args, plugins=[Watch()])
    finally:
        sys.settrace(None)
    return int(code), {(os.path.realpath(f), line) for f, line in ran}, dropped


def main(argv: list[str]) -> int:
    started = time.time()
    with contextlib.redirect_stdout(sys.stderr):
        code, ran, dropped = run_traced(argv)
    total, missed = 0, []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        real = os.path.realpath(path)
        for stmt in sorted(function_statements(ast.parse(source)), key=lambda s: s.lineno):
            total += 1
            if not any((real, line) in ran for line in _header_lines(stmt)):
                missed.append(f"{path.relative_to(ROOT)}:{stmt.lineno}: {lines[stmt.lineno - 1].strip()}")
    print("\n".join(missed), end="\n" if missed else "")
    sys.stderr.write(
        f"reach: {total - len(missed)} of {total} function-body statements ran, {len(missed)} did not; "
        f"pytest exit {code}; {time.time() - started:.0f} s\n"
    )
    if dropped:
        sys.stderr.write(f"reach: the tracer was removed during {', '.join(dropped)}, so the record is incomplete\n")
        return 2
    return 0 if code == 0 and not missed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
