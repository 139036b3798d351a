"""Source hygiene of the package and its tests, checked on their syntax
trees."""

import ast
from pathlib import Path

import pytest

import dtw

MODULES = sorted(p for p in Path(dtw.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ imports to re-export
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names a module imports but never reads, in source order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], node.lineno)
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported if name not in used)


def test_the_check_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport re as regex\n"
              "from typing import Dict, List\n"
              "x: Dict = os.path.join('a')\n")
    assert unused_imports(source) == [(3, "regex"), (4, "List")]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
