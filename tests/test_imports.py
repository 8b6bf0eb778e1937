"""Every name a module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "svo_mapf"

ALLOWED = {
    ("*", "annotations"),  # from __future__ import annotations
    # perfbench/test_perfbench.py checks its tracer's rebinding at this import site
    ("harness", "distance_field"),
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.stem)
def test_no_unused_imports(path):
    unused = [name for name in unused_imports(path.read_text())
              if ("*", name) not in ALLOWED and (path.stem, name) not in ALLOWED]
    assert unused == [], f"{path.name} imports {unused} and never uses them"


def test_checker_sees_attribute_roots_and_nested_imports():
    source = ("import os\nimport numpy as np\nfrom a import b, c\n"
              "def f():\n    from d import e\n    return np.zeros(1), b\n")
    assert unused_imports(source) == ["c", "e", "os"]
