"""Every name a library module imports is used there, unless marked ``# noqa: F401``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "nnwm"


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


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_module_imports_nothing_it_does_not_use(path):
    assert unused_imports((SRC / path).read_text()) == []
