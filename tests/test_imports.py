"""Every name a module, script or test imports is used there, unless marked ``# noqa: F401``,
and every public function and class of the library has a caller outside the tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# library modules by file name, scripts and tests by their path from the repository root
CHECKED = {p.name: p for p in (ROOT / "src" / "nnwm").glob("*.py") if p.name != "__init__.py"}
CHECKED |= {p.relative_to(ROOT).as_posix(): p
            for d in ("scripts", "tests") for p in (ROOT / d).glob("*.py")}
# where a library name must be read: the library, the scripts and the benchmark harness
CALLERS = {p.relative_to(ROOT).as_posix(): p.read_text()
           for d in ("src/nnwm", "scripts", "perfbench") for p in (ROOT / d).glob("*.py")}
# library modules whose public names need such a caller; fixtures.py serves the tests
API = sorted(path for path in CALLERS if path.startswith("src/")
             and Path(path).name not in ("__init__.py", "fixtures.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements that no expression reads, as 'line: name'."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{alias.lineno}: {name}")
    return unused


def test_the_check_sees_an_unused_import_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import os, json\n"
              "from dataclasses import dataclass, replace\n"
              "from math import pi  # noqa: F401\n"
              "@dataclass\nclass A:\n    x: int = 0\n"
              "print(os.sep)\n")
    assert unused_imports(source) == ["2: json", "3: replace"]


@pytest.mark.parametrize("path", sorted(CHECKED))
def test_module_imports_nothing_it_does_not_use(path):
    assert unused_imports(CHECKED[path].read_text()) == []


def _reads(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name and attribute name the tree reads, outside the node skip."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unused_public_names(module: str, sources: dict[str, str]) -> list[str]:
    """The public top-level functions and classes of sources[module] that no source
    reads as a name or an attribute, outside their own definitions."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    elsewhere = set().union(*(_reads(tree) for path, tree in trees.items() if path != module))
    return [node.name for node in trees[module].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in elsewhere
            and node.name not in _reads(trees[module], skip=node)]


def test_the_check_sees_public_api_that_nothing_reads():
    sources = {"lib.py": ("class Used:\n    pass\n"
                          "class Recursive:\n    def clone(self):\n        return Recursive()\n"
                          "def helper():\n    return helper()\n"
                          "def local():\n    return 1\n"
                          "def _private():\n    pass\n"
                          "def dead():\n    pass\n"
                          "VALUE = local()\n"),
               "app.py": ("from lib import Used, dead  # noqa: F401\n"
                          "import lib\n"
                          "print(Used(), lib.helper)\n")}
    assert unused_public_names("lib.py", sources) == ["Recursive", "dead"]


@pytest.mark.parametrize("module", API)
def test_public_api_has_a_caller_outside_the_tests(module):
    assert unused_public_names(module, CALLERS) == []
