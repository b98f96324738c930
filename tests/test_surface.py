"""src/ holds only what the pipeline runs.

Every top-level function and class in the package, and every method of
a top-level class but the dunder methods, must be used somewhere in src/
outside its own definition, or by the benchmark script. A helper that
only its unit test calls gets a real caller or goes, with its test.
Every name a module imports must be read in that module, no module
writes JSON through json.dump, and none imports logging.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "buyintent"
BENCH = ROOT / "bench" / "run.py"

# Names kept without a pipeline caller, each with the reason.
ALLOWED = {
    "scorer_from_model": "the planned `score` command scores with saved parameters (ROADMAP item 3)",
}


def _uses(tree: ast.AST) -> Counter:
    """How often each name is read, accessed as an attribute or imported
    in tree."""
    uses: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.alias):
            uses[node.name] += 1
    return uses


def _top_level_definitions(tree: ast.Module):
    return [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _methods(tree: ast.Module):
    """The methods of tree's top-level classes, dunder methods aside."""
    return [
        n
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for n in cls.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and not re.fullmatch(r"__\w+__", n.name)
    ]


def unused_definitions() -> list[str]:
    modules = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    uses = sum((_uses(tree) for tree in modules.values()), Counter())
    bench = BENCH.read_text(encoding="utf-8")
    unused = []
    for path, tree in modules.items():
        for node in _top_level_definitions(tree) + _methods(tree):
            name = node.name
            if name in ALLOWED or re.search(rf"\b{re.escape(name)}\b", bench):
                continue
            if uses[name] == _uses(node)[name]:
                unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def test_every_top_level_definition_has_a_caller():
    assert unused_definitions() == []


def test_allowlist_names_still_exist():
    defined = {
        node.name
        for path in SRC.glob("*.py")
        for node in _top_level_definitions(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert set(ALLOWED) <= defined


def unused_imports() -> list[str]:
    """Names bound by an import in a src/ module and never read there;
    `from __future__` imports are exempt."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def test_every_import_is_used():
    assert unused_imports() == []


def json_dump_calls() -> list[str]:
    """Calls of json.dump, or imports of it, in src/ modules. json.dump
    encodes in pure Python and writes each token on its own; json.dumps
    runs the C encoder and gives the same bytes."""
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            called = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "dump"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"
            )
            imported = isinstance(node, ast.ImportFrom) and node.module == "json" and any(
                alias.name == "dump" for alias in node.names
            )
            if called or imported:
                calls.append(f"{path.name}:{node.lineno}")
    return calls


def test_no_json_dump_to_a_file():
    assert json_dump_calls() == []


def _enclosing_functions(tree: ast.Module) -> dict:
    """Each node of tree mapped to the name of the innermost function
    defined around it."""
    owner = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else name
            owner[child] = inner
            visit(child, inner)

    visit(tree, None)
    return owner


def output_calls() -> dict:
    """Where src/ calls print, sys.stdout.write and sys.stderr.write, as
    module:function."""
    found = {"print": [], "sys.stdout.write": [], "sys.stderr.write": []}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in found:
                found[ast.unparse(node.func)].append(f"{path.stem}:{owner[node]}")
    return found


def test_stdout_and_stderr_are_written_in_one_place_each():
    """The runner prints a command's one summary line and main writes its
    one error line; nothing else in src/ writes to either stream."""
    assert output_calls() == {"print": ["cli:_run"], "sys.stdout.write": [], "sys.stderr.write": ["cli:main"]}


def logging_imports() -> list[str]:
    """src/ modules that import logging. Unconfigured, logging writes
    plain text to stderr, so a command that succeeds would leave a line
    there beside its one JSON summary on stdout."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "logging" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_module_imports_logging():
    assert logging_imports() == []
