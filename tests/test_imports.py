"""Every name a module, script or test imports is used there, unless marked ``# noqa: F401``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# library modules by file name, scripts and tests by their path from the repository root
CHECKED = {p.name: p for p in (ROOT / "src" / "nnwm").glob("*.py") if p.name != "__init__.py"}
CHECKED |= {p.relative_to(ROOT).as_posix(): p
            for d in ("scripts", "tests") for p in (ROOT / d).glob("*.py")}


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
