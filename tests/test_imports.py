"""The package stays stdlib-only: every absolute import in its source
names a standard-library module or corhorn itself."""

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
