"""The package is what its commands run.  Every function, class, method
and property in `src/corhorn` is reached from `cli`'s functions, from
code a module runs on import, or from a name the benchmark uses; the
ones no command reaches yet are listed in ALLOWED with the ROADMAP item
that gives them a caller or moves them under tests/.  And every
parameter of every function in the package is read by its body.

Reachability is by bare name: a definition is reached when a reached
body names it, as a variable or as an attribute, in any module.  A
method or property is a definition of its own, reached by its attribute
name; a dunder method is walked along with its class, since the
language calls it by protocol."""

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
}

DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


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


def _reached_code(stmt: ast.AST):
    """The names a reached definition's code runs: a function's whole
    body, a class's dunder methods (its other members are definitions
    of their own, its other statements run on import)."""
    if not isinstance(stmt, ast.ClassDef):
        yield from _names(stmt)
        return
    for member in stmt.body:
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_dunder(member.name):
            yield from _names(member)


def unreachable() -> set[str]:
    defs: dict[str, list[tuple[str, ast.AST]]] = {}
    todo: list[str] = []

    def collect(body: list, prefix: str, roots: bool, in_class: bool) -> None:
        for stmt in body:
            if not isinstance(stmt, DEFINITION):
                todo.extend(_names(stmt))
                continue
            # decorators, base classes and metaclasses run on import
            keywords = [k.value for k in getattr(stmt, "keywords", [])]
            for expr in stmt.decorator_list + getattr(stmt, "bases", []) + keywords:
                todo.extend(_names(expr))
            if in_class and _is_dunder(stmt.name):
                continue
            defs.setdefault(stmt.name, []).append((f"{prefix}.{stmt.name}", stmt))
            if roots:
                todo.append(stmt.name)
            if isinstance(stmt, ast.ClassDef):
                collect(stmt.body, f"{prefix}.{stmt.name}", False, True)

    for path in sorted(PACKAGE.glob("*.py")):
        collect(_parse(path).body, path.stem, path.stem == "cli", False)
    for path in sorted(PERFBENCH.glob("*.py")):
        todo.extend(_names(_parse(path), strings=True))
    reached: set[str] = set()
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            for _, stmt in defs[name]:
                todo.extend(_reached_code(stmt))
    return {qualified for name, sites in defs.items() if name not in reached
            for qualified, _ in sites}


def _functions():
    """(qualified name, node, is a method) of every function, method and
    lambda in the package."""
    def visit(node: ast.AST, prefix: str):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
            elif isinstance(child, ast.Lambda):
                name = f"{prefix}.<lambda:{child.lineno}>"
            if isinstance(child, FUNCTION):
                yield name, child, isinstance(node, ast.ClassDef)
            yield from visit(child, name)

    for path in sorted(PACKAGE.glob("*.py")):
        yield from visit(_parse(path), path.stem)


def _param(fn: ast.AST, key):
    """fn's parameter that takes positional argument `key` (an int) or
    keyword argument `key` (a str), or None."""
    a = fn.args
    if isinstance(key, int):
        positional = a.posonlyargs + a.args
        return positional[key].arg if key < len(positional) else a.vararg and a.vararg.arg
    names = {p.arg for p in a.args + a.kwonlyargs}
    return key if key in names else a.kwarg and a.kwarg.arg


def unread_parameters() -> set[str]:
    """`module.function(parameter)` for each parameter, of a function,
    method or lambda in the package, that its body never reads.  Passing
    a parameter on, by bare name, as a function's parameter that is
    itself never read does not read it."""
    functions = list(_functions())
    by_name: dict[str, list] = {}  # a method's site is None: its arguments shift by one
    for q, fn, method in functions:
        if not isinstance(fn, ast.Lambda):
            by_name.setdefault(fn.name, []).append(None if method else (q, fn))
    # each candidate's passes: the (callee sites, argument key) it goes to
    passes: dict[tuple[str, str], list] = {}
    for q, fn, _ in functions:
        if _is_dunder(getattr(fn, "name", "")):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        loads: dict[str, int] = {}
        passed: dict[str, list] = {}
        for n in (n for stmt in body for n in ast.walk(stmt)):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                loads[n.id] = loads.get(n.id, 0) + 1
            elif isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name):
                loads[n.target.id] = loads.get(n.target.id, 0) + 1
            if isinstance(n, ast.Call):
                f = n.func
                callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                args = list(enumerate(n.args)) + [(k.arg, k.value) for k in n.keywords if k.arg]
                for key, arg in args:
                    if isinstance(arg, ast.Name):
                        passed.setdefault(arg.id, []).append((by_name.get(callee, [None]), key))
        for p in params:
            mine = passed.get(p.arg, [])
            if loads.get(p.arg, 0) == len(mine):
                passes[(q, p.arg)] = mine
    # drop a candidate that reaches a read parameter, until none does
    changed = True
    while changed:
        changed = False
        for cand, mine in list(passes.items()):
            for sites, key in mine:
                targets = [site and (site[0], _param(site[1], key)) for site in sites]
                if not all(t in passes for t in targets):
                    del passes[cand]
                    changed = True
                    break
    return {f"{q}({p})" for q, p in passes}


def test_every_definition_is_reached_or_allowed():
    assert PERFBENCH.is_dir(), PERFBENCH
    assert all(reason.startswith("ROADMAP item ") for reason in ALLOWED.values())
    got = unreachable()
    assert got - set(ALLOWED) == set(), "no command reaches these"
    assert set(ALLOWED) - got == set(), "reached or deleted: drop them from ALLOWED"


def test_every_parameter_is_read():
    assert unread_parameters() == set()
