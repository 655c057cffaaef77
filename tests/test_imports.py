"""The package stays stdlib-only: every absolute import in its source
names a standard-library module or corhorn itself.  The prophecy
interpreter and its safety walks stay independent of the heap
interpreter and the harness."""

import ast
import sys
from pathlib import Path

import corhorn

SOURCES = sorted(Path(corhorn.__file__).parent.glob("*.py"))


def _absolute_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_source_imports_only_the_standard_library():
    allowed = sys.stdlib_module_names | {"corhorn"}
    assert len(SOURCES) > 10
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name in _absolute_imports(tree):
            assert name.split(".")[0] in allowed, f"{path.name} imports {name}"



def test_aos_imports_neither_cos_nor_harness():
    # the stack walk takes a heap configuration duck-typed, so loading the
    # prophecy interpreter never loads the heap interpreter
    path = Path(corhorn.__file__).parent / "aos.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    assert "machine" in names
    assert not {part for n in names for part in n.split(".")} & {"cos", "harness"}, names


def test_values_imports_no_corhorn_module():
    # terms stay the bottom layer: every evaluator builds on them, and
    # the rules that give the term forms their meaning live in logic
    path = Path(corhorn.__file__).parent / "values.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    relative = [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert not relative, relative
    assert not [n for n in _absolute_imports(tree) if n.split(".")[0] == "corhorn"]
