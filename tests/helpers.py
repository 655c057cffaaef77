"""Shared test kit: the program printer and the type, heap and
configuration helpers only tests use, value builders, hand-written
clause systems with their known models, and the trace comparators used
by the goldens."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import corhorn
from corhorn import cos, parser, translate
from corhorn import logic as L
from corhorn import syntax as S
from corhorn import values as V
from corhorn.logic import Atom, CHCSystem, Clause

# -- translation mutants -----------------------------------------------------


def drop_swap_exchange(monkeypatch) -> None:
    """Translate every swap as a no-op: resolution then derives wrong values."""
    from corhorn import syntax as S
    from corhorn import translate as T

    real = T.clauses_for_label

    def sabotaged(prog_, typing_, f, label, stmt, order=0):
        if isinstance(stmt, S.StmtInstr) and isinstance(stmt.instr, S.Swap):
            plain = T.label_atom(typing_, f, label, {})
            nxt = T.label_atom(typing_, f, stmt.goto, {})
            return [
                T.Clause(T._binders(typing_, prog_, f, label), plain, (nxt,),
                         tag=(f, order, label, 0))
            ]
        return real(prog_, typing_, f, label, stmt, order)

    monkeypatch.setattr(T, "clauses_for_label", sabotaged)


# -- interpreter mutants -----------------------------------------------------


def stuck_at_swap(module, monkeypatch) -> None:
    """Make one interpreter's (`cos` or `aos`) swap rule stuck."""
    from corhorn import syntax as S

    real = module._step

    def sabotaged(prog_, typing_, cfg, *rest):
        stmt = prog_.fn(cfg.top.fn).body[cfg.top.label]
        if isinstance(stmt, S.StmtInstr) and isinstance(stmt.instr, S.Swap):
            return module.Stuck("sabotaged swap")
        return real(prog_, typing_, cfg, *rest)

    monkeypatch.setattr(module, "_step", sabotaged)


# -- program text --------------------------------------------------------------
# The canonical .cor text of a program: deterministic, and it re-parses
# to a structurally equal program (the parser round trip).


def instr_text(i: S.Instruction) -> str:
    if isinstance(i, S.MutBor):
        return f"let {i.y} = mutbor '{i.lft} {i.x}"
    if isinstance(i, S.Drop):
        return f"drop {i.x}"
    if isinstance(i, S.Immut):
        return f"immut {i.x}"
    if isinstance(i, S.Swap):
        return f"swap(*{i.x}, *{i.y})"
    if isinstance(i, S.MakePtr):
        return f"let *{i.y} = {i.x}"
    if isinstance(i, S.Deref):
        return f"let {i.y} = *{i.x}"
    if isinstance(i, S.CopyDeref):
        return f"let *{i.y} = copy *{i.x}"
    if isinstance(i, S.TypeWeaken):
        return f"{i.x} as {S.type_text(i.ty)}"
    if isinstance(i, S.Call):
        lfts = f"<{', '.join(chr(39) + l for l in i.lfts)}>" if i.lfts else ""
        return f"let {i.y} = {i.fn}{lfts}({', '.join(i.args)})"
    if isinstance(i, S.IntroLft):
        return f"intro '{i.lft}"
    if isinstance(i, S.NowLft):
        return f"now '{i.lft}"
    if isinstance(i, S.LftLeq):
        return f"'{i.lo} <= '{i.hi}"
    if isinstance(i, S.ConstInstr):
        lit = "()" if i.value == S.UNIT_CONST else str(i.value)
        return f"let *{i.y} = {lit}"
    if isinstance(i, S.BinOpInstr):
        return f"let *{i.y} = *{i.x} {i.op} *{i.x2}"
    if isinstance(i, S.RandInstr):
        return f"let *{i.y} = rand()"
    if isinstance(i, S.InjInstr):
        return f"let *{i.y} = inj{i.index}<{S.type_text(i.sum_type)}> *{i.x}"
    if isinstance(i, S.MakePair):
        return f"let *{i.y} = (*{i.x0}, *{i.x1})"
    if isinstance(i, S.DestructPair):
        return f"let (*{i.y0}, *{i.y1}) = *{i.x}"
    raise TypeError(f"not an instruction: {i!r}")


def stmt_text(s: S.Statement) -> str:
    if isinstance(s, S.StmtInstr):
        return f"{instr_text(s.instr)}; goto {s.goto};"
    if isinstance(s, S.StmtReturn):
        return f"return {s.x};"
    if isinstance(s, S.StmtMatch):
        return (
            f"match *{s.x} {{ inj0 *{s.y0} => goto {s.l0}, "
            f"inj1 *{s.y1} => goto {s.l1} }};"
        )
    raise TypeError(f"not a statement: {s!r}")


def function_text(fn: S.FunctionDef) -> str:
    sig = ""
    if fn.lft_params or fn.lft_constraints:
        parts = ", ".join(f"'{l}" for l in fn.lft_params)
        if fn.lft_constraints:
            cons = ", ".join(f"'{lo} <= '{hi}" for lo, hi in fn.lft_constraints)
            parts = f"{parts} | {cons}"
        sig = f"<{parts}>"
    params = ", ".join(f"{x}: {S.type_text(t)}" for x, t in fn.params)
    lines = [f"fn {fn.name}{sig}({params}) -> {S.type_text(fn.ret)} {{"]
    for label, stmt in fn.body.items():
        lines.append(f"  {label}: {stmt_text(stmt)}")
    lines.append("}")
    return "\n".join(lines)


def program_text(prog: S.Program) -> str:
    if not prog.functions:
        return ""
    return "\n\n".join(function_text(fn) for fn in prog) + "\n"


# -- types, heaps and configurations -----------------------------------------


def parse_type(src: str) -> S.Type:
    """The type src spells in the surface syntax."""
    p = parser._Parser(src)
    t = p.type_()
    p.expect("eof")
    return t


def write_value(heap: dict[int, int], t: S.Type, v: V.Value, alloc: cos.Alloc) -> int:
    """Store v (of the sort of t) into fresh cells; inverse of `cos.readout`."""
    if not L.check_value(v, translate.sort_of_type(t)):
        raise cos.RunError("SortMismatch", f"value {V.show(v)} does not have sort of {S.type_text(t)}")
    base = alloc.fresh(S.size_of(t))
    cos._fill(heap, base, t, v, alloc)
    return base


def is_final(prog: S.Program, cfg) -> bool:
    """Is cfg, a configuration of either interpreter, one frame at a return?"""
    top = cfg.top
    return len(cfg.stack) == 1 and isinstance(prog.fn(top.fn).body[top.label], S.StmtReturn)


def absvar_uids(cfg) -> set[int]:
    """The uids of the prophecy variables in an AOS configuration's frames."""
    out: set[int] = set()

    def go(u):
        if isinstance(u, V.AbsVar):
            out.add(u.uid)
        for k in V.children(u):
            go(k)

    for e in cfg.stack:
        for v in e.frame.values():
            go(v)
    return out


# -- value builders ----------------------------------------------------------

NIL = V.Inj(1, V.UNIT)


def cons(x, xs):
    return V.Inj(0, V.Pair(x, V.Box(xs)))


def mklist(*xs):
    out = NIL
    for x in reversed(xs):
        out = cons(x, out)
    return out


def listval(v) -> list[int]:
    out = []
    while isinstance(v, V.Inj) and v.tag == 0:
        out.append(v.payload.fst)
        v = v.payload.snd.inner
    return out


def node(x, left, right):
    return V.Inj(0, V.Pair(x, V.Pair(V.Box(left), V.Box(right))))


def tree_sum(v) -> int:
    if isinstance(v, V.Inj) and v.tag == 0:
        return v.payload.fst + tree_sum(v.payload.snd.fst.inner) + tree_sum(v.payload.snd.snd.inner)
    return 0


LIST_SORT = S.Mu("X", S.Sum(S.Prod(L.INT_S, L.BoxS(S.TypeVar("X"))), L.UNIT_S))


def sort_key(s) -> tuple:
    """A sort as nested tuples of each node's class name and fields: what
    the pinned digests hash, so no printer's choices move them."""
    cls, fields = s.__reduce__()
    return (cls.__name__, *(sort_key(f) if isinstance(f, S.Interned) else f for f in fields))


def sumf(xs: V.Value) -> int:
    total = 0
    while isinstance(xs, V.Inj) and xs.tag == 0:
        total += xs.payload.fst
        xs = xs.payload.snd.inner
    return total


# -- hand-written clause systems mirroring the intro examples ----------------

MUT_INT = L.MutS(L.INT_S)
BOX_INT = L.BoxS(L.INT_S)


def _v(n):
    return V.Var(n)


def _mut(a, b):
    return V.MutPair(a, b)


def is_true_clause() -> Clause:
    return Clause((("u", L.UNIT_S),), Atom("is_true", (V.Inj(1, _v("u")),)), (), tag=("is_true",))


def eq_clause(name, sort) -> Clause:
    return Clause((("x", sort),), Atom(name, (_v("x"), _v("x"))), (), tag=(name,))


def take_max_inc_max_system() -> tuple[CHCSystem, dict]:
    """The informal mutable-borrow encoding of take_max/inc_max, ported
    to the restricted clause shape, plus its known model."""
    clauses = [
        # a >= b: the other side's final value is pinned, result is ma
        Clause(
            (("a", L.INT_S), ("ao", L.INT_S), ("b", L.INT_S)),
            Atom("TakeMax", (_mut(_v("a"), _v("ao")), _mut(_v("b"), _v("b")), _mut(_v("a"), _v("ao")))),
            (Atom("is_true", (V.BinOpT(_v("a"), ">=", _v("b")),)),),
            tag=("takemax", 0),
        ),
        Clause(
            (("a", L.INT_S), ("b", L.INT_S), ("bo", L.INT_S)),
            Atom("TakeMax", (_mut(_v("a"), _v("a")), _mut(_v("b"), _v("bo")), _mut(_v("b"), _v("bo")))),
            (Atom("is_true", (V.BinOpT(_v("a"), "<", _v("b")),)),),
            tag=("takemax", 1),
        ),
        Clause(
            (("a", L.INT_S), ("ao", L.INT_S), ("b", L.INT_S), ("bo", L.INT_S),
             ("c", L.INT_S), ("r", L.BOOL_S)),
            Atom("IncMax", (_v("a"), _v("b"), _v("r"))),
            (
                Atom("TakeMax", (_mut(_v("a"), _v("ao")), _mut(_v("b"), _v("bo")),
                                 _mut(_v("c"), V.BinOpT(_v("c"), "+", 1)))),
                Atom("eq_bool", (_v("r"), V.BinOpT(_v("ao"), "!=", _v("bo")))),
            ),
            tag=("incmax",),
        ),
        # goal: whatever IncMax relates must be true
        Clause(
            (("a", L.INT_S), ("b", L.INT_S), ("r", L.BOOL_S)),
            Atom("is_true", (_v("r"),)),
            (Atom("IncMax", (_v("a"), _v("b"), _v("r"))),),
            tag=("goal",),
        ),
        is_true_clause(),
        eq_clause("eq_bool", L.BOOL_S),
    ]
    sigs = {
        "TakeMax": (MUT_INT, MUT_INT, MUT_INT),
        "IncMax": (L.INT_S, L.INT_S, L.BOOL_S),
        "is_true": (L.BOOL_S,),
        "eq_bool": (L.BOOL_S, L.BOOL_S),
    }

    def m_takemax(args):
        ma, mb, r = args
        return (ma.cur >= mb.cur and mb.fin == mb.cur and r == ma) or (
            ma.cur < mb.cur and ma.fin == ma.cur and r == mb
        )

    model = {
        "TakeMax": m_takemax,
        "IncMax": lambda args: args[2] == V.TRUE,
        "is_true": lambda args: args[0] == V.TRUE,
        "eq_bool": lambda args: args[0] == args[1],
    }
    return CHCSystem(clauses, sigs), model


def linger_dec_system() -> tuple[CHCSystem, dict]:
    clauses = [
        Clause(
            (("a", L.INT_S), ("ao", L.INT_S), ("b", L.INT_S)),
            Atom("Choose", (_mut(_v("a"), _v("ao")), _mut(_v("b"), _v("b")), _mut(_v("a"), _v("ao")))),
            (),
            tag=("choose", 0),
        ),
        Clause(
            (("a", L.INT_S), ("b", L.INT_S), ("bo", L.INT_S)),
            Atom("Choose", (_mut(_v("a"), _v("a")), _mut(_v("b"), _v("bo")), _mut(_v("b"), _v("bo")))),
            (),
            tag=("choose", 1),
        ),
        # stop immediately: the final value is the decremented one
        Clause(
            (("a", L.INT_S), ("ao", L.INT_S), ("u", L.UNIT_S)),
            Atom("LingerDec", (_mut(_v("a"), _v("ao")), V.Inj(1, _v("u")))),
            (Atom("eq_int", (_v("ao"), V.BinOpT(_v("a"), "-", 1))),),
            tag=("lingerdec", "stop"),
        ),
        # recurse with the callee reporting true
        Clause(
            (("a", L.INT_S), ("ao", L.INT_S), ("ap", L.INT_S), ("b", L.INT_S),
             ("bo", L.INT_S), ("mc", MUT_INT), ("u", L.UNIT_S), ("r", L.BOOL_S)),
            Atom("LingerDec", (_mut(_v("a"), _v("ao")), _v("r"))),
            (
                Atom("eq_int", (_v("ap"), V.BinOpT(_v("a"), "-", 1))),
                Atom("Choose", (_mut(_v("ap"), _v("ao")), _mut(_v("b"), _v("bo")), _v("mc"))),
                Atom("LingerDec", (_v("mc"), V.Inj(1, _v("u")))),
                Atom("eq_bool", (_v("r"), V.BinOpT(_v("b"), ">=", _v("bo")))),
            ),
            tag=("lingerdec", "rec-true"),
        ),
        # recurse with the callee reporting false: the conjunction is false
        Clause(
            (("a", L.INT_S), ("ao", L.INT_S), ("ap", L.INT_S), ("b", L.INT_S),
             ("bo", L.INT_S), ("mc", MUT_INT), ("u", L.UNIT_S), ("u2", L.UNIT_S)),
            Atom("LingerDec", (_mut(_v("a"), _v("ao")), V.Inj(0, _v("u2")))),
            (
                Atom("eq_int", (_v("ap"), V.BinOpT(_v("a"), "-", 1))),
                Atom("Choose", (_mut(_v("ap"), _v("ao")), _mut(_v("b"), _v("bo")), _v("mc"))),
                Atom("LingerDec", (_v("mc"), V.Inj(0, _v("u")))),
            ),
            tag=("lingerdec", "rec-false"),
        ),
        Clause(
            (("a", L.INT_S), ("ao", L.INT_S), ("r", L.BOOL_S)),
            Atom("is_true", (_v("r"),)),
            (Atom("LingerDec", (_mut(_v("a"), _v("ao")), _v("r"))),),
            tag=("goal",),
        ),
        is_true_clause(),
        eq_clause("eq_int", L.INT_S),
        eq_clause("eq_bool", L.BOOL_S),
    ]
    sigs = {
        "Choose": (MUT_INT, MUT_INT, MUT_INT),
        "LingerDec": (MUT_INT, L.BOOL_S),
        "is_true": (L.BOOL_S,),
        "eq_int": (L.INT_S, L.INT_S),
        "eq_bool": (L.BOOL_S, L.BOOL_S),
    }
    model = {
        "Choose": lambda args: (args[1].fin == args[1].cur and args[2] == args[0])
        or (args[0].fin == args[0].cur and args[2] == args[1]),
        "LingerDec": lambda args: args[1] == V.TRUE and args[0].cur >= args[0].fin,
        "is_true": lambda args: args[0] == V.TRUE,
        "eq_int": lambda args: args[0] == args[1],
        "eq_bool": lambda args: args[0] == args[1],
    }
    return CHCSystem(clauses, sigs), model


def inc_some_system() -> tuple[CHCSystem, dict]:
    MUT_LIST = L.MutS(LIST_SORT)
    BOX_LIST = L.BoxS(LIST_SORT)

    def cons_p(h, t):
        return V.Inj(0, V.Pair(h, V.Box(t)))

    clauses = [
        # take the head element; the tails stay linked
        Clause(
            (("x", L.INT_S), ("xo", L.INT_S), ("xs2", LIST_SORT)),
            Atom("TakeSome", (
                _mut(cons_p(_v("x"), _v("xs2")), cons_p(_v("xo"), _v("xs2"))),
                _mut(_v("x"), _v("xo")),
            )),
            (),
            tag=("takesome", "head"),
        ),
        # skip the head; it keeps its value across the borrow
        Clause(
            (("x", L.INT_S), ("xs2", LIST_SORT), ("xs2o", LIST_SORT), ("r", MUT_INT)),
            Atom("TakeSome", (
                _mut(cons_p(_v("x"), _v("xs2")), cons_p(_v("x"), _v("xs2o"))),
                _v("r"),
            )),
            (Atom("TakeSome", (_mut(_v("xs2"), _v("xs2o")), _v("r"))),),
            tag=("takesome", "tail"),
        ),
        # walking off the end never returns
        Clause(
            (("u", L.UNIT_S), ("xso", LIST_SORT), ("r", MUT_INT)),
            Atom("TakeSome", (_mut(V.Inj(1, _v("u")), _v("xso")), _v("r"))),
            (Atom("TakeSome", (_mut(V.Inj(1, _v("u")), _v("xso")), _v("r"))),),
            tag=("takesome", "nil"),
        ),
        Clause(
            (("x", L.INT_S), ("xs2", LIST_SORT), ("r", L.INT_S), ("rp", L.INT_S)),
            Atom("Sum", (V.Box(cons_p(_v("x"), _v("xs2"))), _v("r"))),
            (
                Atom("Sum", (V.Box(_v("xs2")), _v("rp"))),
                Atom("eq_int", (_v("r"), V.BinOpT(_v("x"), "+", _v("rp")))),
            ),
            tag=("sum", "cons"),
        ),
        Clause(
            (("u", L.UNIT_S),),
            Atom("Sum", (V.Box(V.Inj(1, _v("u"))), 0)),
            (),
            tag=("sum", "nil"),
        ),
        Clause(
            (("xs", LIST_SORT), ("xso", LIST_SORT), ("n", L.INT_S), ("m", L.INT_S),
             ("y", L.INT_S), ("r", L.BOOL_S)),
            Atom("IncSome", (_v("xs"), _v("r"))),
            (
                Atom("Sum", (V.Box(_v("xs")), _v("n"))),
                Atom("TakeSome", (_mut(_v("xs"), _v("xso")),
                                  _mut(_v("y"), V.BinOpT(_v("y"), "+", 1)))),
                Atom("Sum", (V.Box(_v("xso")), _v("m"))),
                Atom("eq_bool", (_v("r"), V.BinOpT(_v("m"), "==", V.BinOpT(_v("n"), "+", 1)))),
            ),
            tag=("incsome",),
        ),
        Clause(
            (("xs", LIST_SORT), ("r", L.BOOL_S)),
            Atom("is_true", (_v("r"),)),
            (Atom("IncSome", (_v("xs"), _v("r"))),),
            tag=("goal",),
        ),
        is_true_clause(),
        eq_clause("eq_int", L.INT_S),
        eq_clause("eq_bool", L.BOOL_S),
    ]
    sigs = {
        "TakeSome": (MUT_LIST, MUT_INT),
        "Sum": (BOX_LIST, L.INT_S),
        "IncSome": (LIST_SORT, L.BOOL_S),
        "is_true": (L.BOOL_S,),
        "eq_int": (L.INT_S, L.INT_S),
        "eq_bool": (L.BOOL_S, L.BOOL_S),
    }
    model = {
        "TakeSome": lambda args: args[1].fin - args[1].cur == sumf(args[0].fin) - sumf(args[0].cur),
        "Sum": lambda args: args[1] == sumf(args[0].inner),
        "IncSome": lambda args: args[1] == V.TRUE,
        "is_true": lambda args: args[0] == V.TRUE,
        "eq_int": lambda args: args[0] == args[1],
        "eq_bool": lambda args: args[0] == args[1],
    }
    return CHCSystem(clauses, sigs), model


# -- reference implementations ----------------------------------------------


def map_term_fields(t, fn):
    """A new node of t's type with fn applied to each field annotated as a
    term, built from `dataclasses.fields` alone and so apart from
    `values.map_children`; t itself when it has no such field (ints,
    unit, variables)."""
    fields = dataclasses.fields(t) if dataclasses.is_dataclass(t) else ()
    if not any("Term" in f.type for f in fields):
        return t
    return type(t)(*(fn(getattr(t, f.name)) if "Term" in f.type else getattr(t, f.name)
                     for f in fields))


def subst_reduce_reference(t, theta: dict):
    """`logic.subst_reduce` as the two passes it folds into one walk:
    substitute theta's terms for its variables, then reduce every redex
    by `logic.reduce`, innermost first, each pass through
    `values.map_children`."""
    def subst(u):
        return theta.get(u.name, u) if type(u) is V.Var else V.map_children(u, subst)

    def reduce_all(u):
        return L.reduce(V.map_children(u, reduce_all))

    return reduce_all(subst(t))


def canon_config_reference(cfg) -> tuple:
    """`sldc.canon_config` as a rename pass followed by `V.show`: every
    variable renamed v0, v1, ... in first-occurrence order, then each
    stack argument and the result shown.  The one-walk key must equal it."""
    mapping: dict[str, str] = {}

    def walk(t):
        if isinstance(t, V.Var):
            if t.name not in mapping:
                mapping[t.name] = f"v{len(mapping)}"
            return V.Var(mapping[t.name])
        return map_term_fields(t, walk)

    atoms = tuple((a.pred, tuple(V.show(walk(x)) for x in a.args)) for a in cfg.stack)
    return (atoms, V.show(walk(cfg.result)))


def is_pattern_reference(t) -> bool:
    """`V.is_pattern` as the plain recursion it was before the answer
    was cached on the node."""
    if isinstance(t, (V.Var, int, V.UnitVal)):
        return True
    if isinstance(t, (V.Box, V.MutPair, V.Inj, V.Pair)):
        return all(is_pattern_reference(k) for k in V.children(t))
    return False


def var_names_reference(t) -> list[str]:
    """The names of t's distinct variables in the order of their first
    occurrence, by the plain recursion that `V.var_leaves` caches."""
    out: dict[str, None] = {}

    def go(u):
        if isinstance(u, V.Var):
            out.setdefault(u.name)
        for k in V.children(u):
            go(k)

    go(t)
    return list(out)


def fresh_copy(t):
    """An equal term built of new compound nodes, none of which has
    cached a fact yet."""
    return map_term_fields(t, fresh_copy)


# -- trace comparison modulo renaming ----------------------------------------


class TraceMismatch(AssertionError):
    pass


def _bind(fwd: dict, back: dict, mine, sym):
    if mine in fwd:
        if fwd[mine] != sym:
            raise TraceMismatch(f"{mine} already renamed to {fwd[mine]}, needed {sym}")
    elif sym in back:
        raise TraceMismatch(f"symbol {sym} already bound to {back[sym]}, offered {mine}")
    else:
        fwd[mine] = sym
        back[sym] = mine


def match_cos_trace(trace, waypoints):
    """Assert that the expected waypoints appear, in order, as a
    subsequence of the trace, equal modulo a bijective address renaming.
    A pairing persists while the address is live (observable in frames
    or heap) on both sides; dead pairings are dropped, so a symbol may
    later rename a fresh allocation, matching re-use in written-out
    example executions."""
    fwd: dict = {}
    back: dict = {}
    ti = 0
    for wi, wp in enumerate(waypoints):
        want_stack = wp["stack"]
        while ti < len(trace):
            cfg = trace[ti]
            sig = [(e.fn, e.label, e.recv) for e in cfg.stack]
            if sig == [(f["fn"], f["label"], f.get("recv")) for f in want_stack]:
                break
            ti += 1
        if ti >= len(trace):
            raise TraceMismatch(f"waypoint {wi} {want_stack[0]['label']} not reached")
        cfg = trace[ti]
        live_mine = {a for e in cfg.stack for a in e.frame.values()} | set(cfg.heap)
        live_sym = {s for f in want_stack for s in f["frame"].values()} | set(wp["heap"])
        for mine in [m for m in fwd if m not in live_mine or fwd[m] not in live_sym]:
            back.pop(fwd[mine], None)
            fwd.pop(mine)
        for entry, want in zip(cfg.stack, want_stack):
            if set(entry.frame) != set(want["frame"]):
                raise TraceMismatch(
                    f"waypoint {wi}: frame vars {sorted(entry.frame)} != {sorted(want['frame'])}"
                )
            for x, addr in entry.frame.items():
                _bind(fwd, back, addr, want["frame"][x])
        got_heap = {}
        for addr, val in cfg.heap.items():
            if addr not in fwd:
                raise TraceMismatch(f"waypoint {wi}: heap address {addr} unnamed")
            got_heap[fwd[addr]] = val
        if got_heap != wp["heap"]:
            raise TraceMismatch(f"waypoint {wi}: heap {got_heap} != {wp['heap']}")
        ti += 1


def match_aos_trace(trace, waypoints):
    """Same idea for the prophecy interpreter: pre-values are compared
    with a global bijection between abstract-variable ids and the
    symbolic names used in the expected waypoints."""
    fwd: dict = {}
    back: dict = {}

    def match_val(mine, want, wi):
        if isinstance(want, str):  # symbolic abstract variable
            if not isinstance(mine, V.AbsVar):
                raise TraceMismatch(f"waypoint {wi}: expected prophecy {want}, got {V.show(mine)}")
            _bind(fwd, back, mine.uid, want)
            return
        if isinstance(mine, V.AbsVar):
            raise TraceMismatch(f"waypoint {wi}: unexpected prophecy {V.show(mine)}")
        if isinstance(want, tuple):
            ctor, kids = want[0], want[1:]
            ok = (
                (ctor == "box" and isinstance(mine, V.Box) and [mine.inner])
                or (ctor == "mut" and isinstance(mine, V.MutPair) and [mine.cur, mine.fin])
                or (ctor == "inj" and isinstance(mine, V.Inj) and mine.tag == kids[0] and [mine.payload])
                or (ctor == "pair" and isinstance(mine, V.Pair) and [mine.fst, mine.snd])
            )
            if not ok:
                raise TraceMismatch(f"waypoint {wi}: {V.show(mine)} does not match {want}")
            payload = kids[1:] if ctor == "inj" else kids
            for m, w in zip(ok, payload):
                match_val(m, w, wi)
            return
        if mine != want:
            raise TraceMismatch(f"waypoint {wi}: {V.show(mine)} != {want}")

    ti = 0
    for wi, wp in enumerate(waypoints):
        want_stack = wp["stack"]
        while ti < len(trace):
            cfg = trace[ti]
            sig = [(e.fn, e.label, e.recv) for e in cfg.stack]
            if sig == [(f["fn"], f["label"], f.get("recv")) for f in want_stack]:
                break
            ti += 1
        if ti >= len(trace):
            raise TraceMismatch(f"waypoint {wi} not reached")
        cfg = trace[ti]
        for entry, want in zip(cfg.stack, want_stack):
            if set(entry.frame) != set(want["frame"]):
                raise TraceMismatch(f"waypoint {wi}: frame vars differ")
            for x, v in entry.frame.items():
                match_val(v, want["frame"][x], wi)
            if "theta" in want and entry.theta != want["theta"]:
                raise TraceMismatch(f"waypoint {wi}: theta {entry.theta} != {want['theta']}")
        if "carrier" in wp and set(cfg.lft.carrier) != set(wp["carrier"]):
            raise TraceMismatch(f"waypoint {wi}: lifetimes {cfg.lft.carrier} != {wp['carrier']}")
        ti += 1


def box(v):
    return ("box", v)


def mut(a, b):
    return ("mut", a, b)


def inj(i, v):
    return ("inj", i, v)


TRUE_W = inj(1, V.UNIT)


# -- hash-order independence -------------------------------------------------

HASH_SEEDS = range(8)


def python_under_hash_seed(seed: int, *argv: str) -> subprocess.CompletedProcess:
    """Run `python argv...` with PYTHONHASHSEED=seed and corhorn importable."""
    src = str(Path(corhorn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60)
