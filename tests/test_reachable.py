"""The package is what its commands run.  Every top-level function and
class in `src/corhorn` is reached from `cli`'s functions, from code a
module runs on import, or from a name the benchmark uses; the ones no
command reaches yet are listed in ALLOWED with the ROADMAP item that
gives them a caller or moves them under tests/.

Reachability is by bare name: a definition is reached when a reached
body names it, as a variable or as an attribute, in any module."""

import ast
from pathlib import Path

import corhorn

PACKAGE = Path(corhorn.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"

ALLOWED = {
    "sldc.bottom_up_facts": "ROADMAP item 7: the semi-naive bottom-up engine, called by item 6",
    "sldc._solve_arg": "ROADMAP item 7: a helper of bottom_up_facts",
    "sldc._merge_pending": "ROADMAP item 7: a helper of bottom_up_facts",
    "sldc._body_valuations": "ROADMAP item 7: a helper of bottom_up_facts",
    "sldc.OracleBudget": "ROADMAP item 7: raised by bottom_up_facts",
    "logic.check_model_sampled": "ROADMAP item 3: the model workload runs it",
    "logic._clause_holds": "ROADMAP item 3: a helper of check_model_sampled",
    "logic.Verdict": "ROADMAP item 3: check_model_sampled's result",
    "logic.interpret_term": "ROADMAP item 12: the derivation checker evaluates clause instances",
    "logic.refine_default": "ROADMAP item 12: the derivation checker grounds free variables",
    "logic.default_value": "ROADMAP item 12: refine_default's values",
    "printer.program_text": "ROADMAP item 14: only the parser round trip uses it; moves under tests/",
    "printer.function_text": "ROADMAP item 14: a helper of program_text",
    "printer.stmt_text": "ROADMAP item 14: a helper of program_text",
    "printer.instr_text": "ROADMAP item 14: a helper of program_text",
    "cos.write_value": "ROADMAP item 14: only tests call it; moves under tests/",
    "parser.parse_type": "ROADMAP item 14: only tests call it; moves under tests/",
    "machine.is_final": "ROADMAP item 14: only tests call it; moves under tests/",
}

DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names(node: ast.AST, strings: bool = False):
    """The identifiers node's code names; with strings, also its string
    constants (the benchmark wraps functions named by strings)."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


def unreachable() -> set[str]:
    defs: dict[str, list[tuple[str, ast.AST]]] = {}
    todo: list[str] = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in _parse(path).body:
            if not isinstance(stmt, DEFINITION):
                todo += _names(stmt)
                continue
            defs.setdefault(stmt.name, []).append((path.stem, stmt))
            # decorators and base classes run on import
            for expr in stmt.decorator_list + getattr(stmt, "bases", []):
                todo += _names(expr)
            if path.stem == "cli":
                todo.append(stmt.name)
    for path in sorted(PERFBENCH.glob("*.py")):
        todo += _names(_parse(path), strings=True)
    reached: set[str] = set()
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            for _, stmt in defs[name]:
                todo += _names(stmt)
    return {f"{module}.{name}" for name, sites in defs.items() if name not in reached
            for module, _ in sites}


def test_every_definition_is_reached_or_allowed():
    assert PERFBENCH.is_dir(), PERFBENCH
    assert all(reason.startswith("ROADMAP item ") for reason in ALLOWED.values())
    got = unreachable()
    assert got - set(ALLOWED) == set(), "no command reaches these"
    assert set(ALLOWED) - got == set(), "reached or deleted: drop them from ALLOWED"
