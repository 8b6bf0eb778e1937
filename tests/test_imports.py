"""Every name a module imports is used in that module, and every private
module-level name is read by the package, the demos or the benchmark
harness, not by tests alone."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "svo_mapf"

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


def private_definitions(tree) -> dict:
    """The module-level _private names a module defines (dunders aside), each
    with the statement that defines it."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        defs.update((name, node) for name in names
                    if name.startswith("_") and not name.startswith("__"))
    return defs


def references(tree) -> Counter:
    """How often each name is read, read as an attribute, imported or given
    as a string (monkeypatch.setattr takes attribute names)."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs[node.value] += 1
    return refs


def orphaned_privates(modules: dict, others: list) -> list[str]:
    """module.name for each private module-level name of modules (name ->
    source) that no source, modules' or others', reads outside the statement
    defining it."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    total = Counter()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        total.update(references(tree))
    return sorted(f"{module}.{name}" for module, tree in trees.items()
                  for name, node in private_definitions(tree).items()
                  if total[name] == references(node)[name])


def library_readers(root: Path) -> list[str]:
    """The sources outside the package whose reads keep a private name
    alive: the demos and the benchmark harness. A name that only tests read
    is a second copy of some rule, kept for the tests."""
    return [p.read_text() for d in ("demos", "perfbench") for p in sorted((root / d).rglob("*.py"))]


def test_every_private_name_is_used():
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert orphaned_privates(modules, library_readers(ROOT)) == []


def test_private_checker_does_not_count_reads_from_tests(tmp_path):
    for d, source in (("tests", "from m import _tested\n"), ("demos", "from m import _demoed\n"),
                      ("perfbench", "import m\nm._benched()\n")):
        (tmp_path / d).mkdir()
        (tmp_path / d / "a.py").write_text(source)
    module = "def _tested():\n    pass\ndef _demoed():\n    pass\ndef _benched():\n    pass\n"
    assert orphaned_privates({"m": module}, library_readers(tmp_path)) == ["m._tested"]


def test_private_checker_skips_self_references():
    module = ("_LIMIT = 3\n_TABLE = {1: _LIMIT}\n"
              "def _walk(n):\n    return _walk(n - 1) if n else 0\n"
              "def _used():\n    return _TABLE\n"
              "class _Node:\n    pass\n")
    assert orphaned_privates({"m": module}, ["from m import _used\n"]) == ["m._Node", "m._walk"]


def boundary_breaches(source: str) -> list[str]:
    """What in source reads JSON or checks a JSON type outside the input
    boundary: json.load / json.loads calls, and module-level is_* / _is_*
    predicates."""
    tree = ast.parse(source)
    breaches = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("load", "loads")
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"):
            breaches.append(f"json.{node.func.attr} at line {node.lineno}")
    for node in tree.body:
        names = [node.name] if isinstance(node, ast.FunctionDef) else [
            t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)]
        breaches += [f"predicate {name} at line {node.lineno}" for name in names
                     if name.lstrip("_").startswith("is_")]
    return breaches


def test_json_is_read_only_at_the_input_boundary():
    breaches = {p.name: boundary_breaches(p.read_text()) for p in sorted(SRC.glob("*.py"))
                if p.name != "inputs.py"}
    assert {name: found for name, found in breaches.items() if found} == {}


def test_boundary_checker_sees_loads_and_predicates():
    source = ("import json\ndef _is_cell(x):\n    return True\nclass G:\n    def is_free(self):\n"
              "        return json.load(f)\nis_number = lambda x: x\nx = json.loads('1')\n")
    assert sorted(boundary_breaches(source)) == ["json.load at line 6", "json.loads at line 8",
                                         "predicate _is_cell at line 2", "predicate is_number at line 7"]
