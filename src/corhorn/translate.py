"""Translation from typed programs to CHC systems.

Each (function, label) pair becomes a predicate over the label's live
variables, sorted, plus a result position (`label_atom` builds every
atom, `_binders` every signature and clause binder list).  Each labeled
statement becomes one clause (one per arm for a match) of a single form,

    P_label(vars, some pinned to patterns) <= [callee and] P_next(vars, some replaced by terms)

built in one place; a statement states only its pins, substitution,
binder changes and whose variables are bound.  Lifetime information is
erased: owning pointers and immutable references become box sorts,
mutable references become mut (current, final) pair sorts, and
releasing a mutable reference pins its final component to the current
value via a non-linear head pattern.

Generated variable names carry the reserved '!' character: x!c / x!p
are the fresh current/final values split off x, and x!cc, x!cp, x!pc
name the three fresh components when dereferencing a mut-of-mut.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from . import logic as L
from . import syntax as S
from . import values as V
from .logic import Atom, CHCSystem, Clause, Sort, pred_name
from .typeck import TypingResult, WholeCtx, type_program

RES = "res"


class TranslateError(S.CorError):
    def __init__(self, code: str, msg: str):
        super().__init__(f"[{code}] {msg}")
        self.code = code


@lru_cache(maxsize=None)
def sort_of_type(t: S.Type) -> Sort:
    """Erase lifetimes: an own or immut pointer becomes a box, a mut
    pointer a mut, and every other node stays, so a type that holds no
    pointer is its own sort."""
    if isinstance(t, S.Ptr):
        inner = sort_of_type(t.target)
        return L.MutS(inner) if t.kind == S.MUT else L.BoxS(inner)
    return S.map_children(t, sort_of_type)


def label_vars(wc: WholeCtx) -> list[str]:
    """A label predicate's argument order: its live variables, sorted,
    then the result.  Only `label_atom` and `_binders` read it."""
    return sorted(wc.gamma)


def label_atom(typing: TypingResult, f: str, label: str, subst: dict[str, V.Term]) -> Atom:
    """f's label predicate applied to subst, keyed by variable name and
    RES, in `label_vars` order; a name missing from subst stands for
    itself.  Every atom of a label predicate is built here."""
    wc = typing.ctx(f, label)
    args = [subst.get(x, V.Var(x)) for x in label_vars(wc)]
    args.append(subst.get(RES, V.Var(RES)))
    return Atom(pred_name(f, label), tuple(args))


def _binders(
    typing: TypingResult, prog: S.Program, f: str, label: str,
    drop: tuple[str, ...] = (), fresh: tuple[tuple[str, Sort], ...] = (),
) -> tuple[tuple[str, Sort], ...]:
    wc = typing.ctx(f, label)
    ret_sort = sort_of_type(prog.fn(f).ret)
    out = [
        (x, sort_of_type(wc.gamma[x].ty))
        for x in label_vars(wc)
        if x not in drop
    ]
    out.append((RES, ret_sort))
    out.extend(fresh)
    return tuple(out)


def clauses_for_label(
    prog: S.Program, typing: TypingResult, f: str, label: str, stmt: S.Statement,
    order: int = 0,
) -> list[Clause]:
    """The clause set modeling one labeled statement."""
    ty = lambda x: typing.ty(f, label, x)

    def clause(to, pin=None, subst=None, drop=(), fresh=(), at=label, pre=(), case=0):
        """P_label(pinned) <= pre and P_to(substituted), binding at's variables
        minus drop, then res, then fresh; to=None leaves out the successor."""
        head = label_atom(typing, f, label, pin or {})
        body = pre + ((label_atom(typing, f, to, subst or {}),) if to is not None else ())
        binders = _binders(typing, prog, f, at, drop=drop, fresh=fresh)
        return [Clause(binders, head, body, tag=(f, order, label, case))]

    def release(x: str, sort: Sort) -> dict:
        """Pin the final value of the mutable reference x to its current one."""
        cur = V.Var(f"{x}!c")
        return dict(pin={x: V.MutPair(cur, cur)}, drop=(x,), fresh=((cur.name, sort),))

    def ptr(x: str, cur: V.Term, fin: V.Term) -> V.Term:
        """A pointer of x's kind to cur: a mut (cur, fin) pair, else a box."""
        return V.MutPair(cur, fin) if ty(x).kind == S.MUT else V.Box(cur)

    deref = lambda x: V.DerefT(V.Var(x))
    final = lambda x: V.FinalT(V.Var(x))

    if isinstance(stmt, S.StmtReturn):
        return clause(None, pin={RES: V.Var(stmt.x)})

    if isinstance(stmt, S.StmtMatch):
        t = ty(stmt.x)
        sum_t = S.whnf(t.target)
        cur, fin = V.Var(f"{stmt.x}!c"), V.Var(f"{stmt.x}!p")
        split = (cur, fin) if t.kind == S.MUT else (cur,)
        out = []
        arms = ((stmt.y0, stmt.l0, sum_t.left), (stmt.y1, stmt.l1, sum_t.right))
        for i, (binder, target, side) in enumerate(arms):
            side_sort = sort_of_type(side)
            out += clause(
                target, pin={stmt.x: ptr(stmt.x, V.Inj(i, cur), V.Inj(i, fin))},
                subst={binder: ptr(stmt.x, cur, fin)}, drop=(binder,),
                fresh=tuple((v.name, side_sort) for v in split), at=target, case=i,
            )
        return out

    instr = stmt.instr
    goto = stmt.goto

    if isinstance(instr, S.MutBor):
        x, fin = instr.x, V.Var(f"{instr.x}!p")
        return clause(
            goto, subst={instr.y: V.MutPair(deref(x), fin), x: ptr(x, fin, final(x))},
            fresh=((fin.name, sort_of_type(ty(x).target)),),
        )

    if isinstance(instr, S.Drop):
        t = ty(instr.x)
        if t.kind == S.MUT:
            return clause(goto, **release(instr.x, sort_of_type(t.target)))
        return clause(goto)

    if isinstance(instr, S.Immut):
        cur = V.Var(f"{instr.x}!c")
        return clause(
            goto, subst={instr.x: V.Box(cur)}, **release(instr.x, sort_of_type(ty(instr.x).target))
        )

    if isinstance(instr, S.Swap):
        x, y = instr.x, instr.y
        return clause(goto, subst={x: ptr(x, deref(y), final(x)), y: ptr(y, deref(x), final(y))})

    if isinstance(instr, S.MakePtr):
        return clause(goto, subst={instr.y: V.Box(V.Var(instr.x))})

    if isinstance(instr, S.Deref):
        t = ty(instr.x)
        inner = t.target
        if t.kind == S.OWN:
            return clause(goto, subst={instr.y: deref(instr.x)})
        if t.kind == S.IMMUT or inner.kind == S.OWN:
            y = ptr(instr.x, V.DerefT(deref(instr.x)), V.DerefT(final(instr.x)))
            return clause(goto, subst={instr.y: y})
        if inner.kind == S.IMMUT:
            return clause(
                goto, subst={instr.y: V.Var(f"{instr.x}!c")},
                **release(instr.x, L.BoxS(sort_of_type(inner.target))),
            )
        # mut of mut
        cc, cp, pc = (V.Var(f"{instr.x}!{part}") for part in ("cc", "cp", "pc"))
        inner_sort = sort_of_type(inner.target)
        return clause(
            goto, pin={instr.x: V.MutPair(V.MutPair(cc, cp), V.MutPair(pc, cp))},
            subst={instr.y: V.MutPair(cc, pc)}, drop=(instr.x,),
            fresh=tuple((v.name, inner_sort) for v in (cc, cp, pc)),
        )

    if isinstance(instr, S.CopyDeref):
        return clause(goto, subst={instr.y: V.Box(deref(instr.x))})

    if isinstance(instr, (S.TypeWeaken, S.IntroLft, S.NowLft, S.LftLeq)):
        return clause(goto)

    if isinstance(instr, S.Call):
        # parameters take the arguments by position, put in the callee's predicate order
        args = {p: V.Var(x) for (p, _), x in zip(prog.fn(instr.fn).params, instr.args)}
        callee = label_atom(typing, instr.fn, S.ENTRY, {**args, RES: V.Var(instr.y)})
        ret_sort = sort_of_type(typing.ty(f, goto, instr.y))
        return clause(goto, pre=(callee,), fresh=((instr.y, ret_sort),))

    if isinstance(instr, S.ConstInstr):
        lit: V.Term = V.UNIT if instr.value == S.UNIT_CONST else instr.value
        return clause(goto, subst={instr.y: V.Box(lit)})

    if isinstance(instr, S.BinOpInstr):
        op = V.BinOpT(deref(instr.x), instr.op, deref(instr.x2))
        return clause(goto, subst={instr.y: V.Box(op)})

    if isinstance(instr, S.RandInstr):
        # binders come from the successor label, so y is quantified but
        # unconstrained on the left: the random draw
        return clause(goto, at=goto)

    if isinstance(instr, S.InjInstr):
        return clause(goto, subst={instr.y: V.Box(V.Inj(instr.index, deref(instr.x)))})

    if isinstance(instr, S.MakePair):
        return clause(goto, subst={instr.y: V.Box(V.Pair(deref(instr.x0), deref(instr.x1)))})

    if isinstance(instr, S.DestructPair):
        part = lambda i: ptr(instr.x, V.ProjT(deref(instr.x), i), V.ProjT(final(instr.x), i))
        return clause(goto, subst={instr.y0: part(0), instr.y1: part(1)})

    raise TypeError(f"not an instruction: {instr!r}")


def translate_program(prog: S.Program, typing: Optional[TypingResult] = None) -> CHCSystem:
    typing = typing or type_program(prog)
    sigs: dict[str, tuple[Sort, ...]] = {}
    clauses: list[Clause] = []
    for fn in prog:
        for order, (label, stmt) in enumerate(fn.body.items()):
            binders = _binders(typing, prog, fn.name, label)
            sigs[pred_name(fn.name, label)] = tuple(s for _, s in binders)
            clauses += clauses_for_label(prog, typing, fn.name, label, stmt, order)
    return CHCSystem(clauses, sigs)


# ---------------------------------------------------------------------------
# Goal attachment
# ---------------------------------------------------------------------------

GOAL_PRED = "goal_violation"
IS_TRUE_PRED = "is_true"


@dataclass(frozen=True)
class GoalSpec:
    fn: str
    kind: str  # 'returns_true' | 'equals'
    expect: Optional[V.Value] = None

    @staticmethod
    def parse(text: str) -> "GoalSpec":
        from .parser import parse_value

        words = text.strip().split(None, 2)
        if len(words) == 3 and words[1] == "returns" and words[2] == "true":
            return GoalSpec(words[0], "returns_true")
        if len(words) == 3 and words[1] == "equals":
            return GoalSpec(words[0], "equals", parse_value(words[2]))
        raise TranslateError(
            "UnsupportedGoalShape",
            f"cannot parse goal {text!r}; use 'NAME returns true' or 'NAME equals VALUE'",
        )


def attach_goal(sys: CHCSystem, prog: S.Program, goal: GoalSpec) -> CHCSystem:
    """Add a violation predicate for the goal plus the query clause.

    'f returns true' marks as a violation any run of f producing
    box(inj0 ()); since the logic has no primitive constraints, the
    boolean is matched structurally on its sum tag.
    """
    if goal.fn not in prog.functions:
        raise TranslateError("UnsupportedGoalShape", f"unknown function {goal.fn!r}")
    fn = prog.fn(goal.fn)
    if not fn.is_simple():
        raise TranslateError("UnsupportedGoalShape", f"{goal.fn} takes lifetime parameters")
    entry = pred_name(goal.fn, S.ENTRY)
    sig = sys.sigs[entry]
    arg_sorts, res_sort = sig[:-1], sig[-1]
    arg_vars = tuple(V.Var(f"a!{i}") for i in range(len(arg_sorts)))
    binders = tuple((f"a!{i}", s) for i, s in enumerate(arg_sorts))
    clauses = list(sys.clauses)
    sigs = dict(sys.sigs)
    sigs[GOAL_PRED] = ()

    if goal.kind == "returns_true":
        if not L.sort_equiv(res_sort, L.BoxS(L.BOOL_S)):
            raise TranslateError("UnsupportedGoalShape", f"{goal.fn} does not return own bool")
        bad = V.Box(V.Inj(0, V.Var("u!0")))
        clauses.append(
            Clause(
                binders + (("u!0", L.UNIT_S),),
                Atom(GOAL_PRED, ()),
                (Atom(entry, arg_vars + (bad,)),),
                tag=("goal", goal.fn, "returns_true"),
            )
        )
    elif goal.kind == "equals":
        if not L.sort_equiv(res_sort, L.BoxS(L.INT_S)) or not isinstance(goal.expect, V.Box):
            raise TranslateError("UnsupportedGoalShape", f"{goal.fn} equals-goal needs an own int result")
        sigs[IS_TRUE_PRED] = (L.BOOL_S,)
        clauses.append(
            Clause(
                (("b!0", L.UNIT_S),),
                Atom(IS_TRUE_PRED, (V.Inj(1, V.Var("b!0")),)),
                (),
                tag=("goal", "is_true"),
            )
        )
        clauses.append(
            Clause(
                binders + (("r!0", L.INT_S),),
                Atom(GOAL_PRED, ()),
                (
                    Atom(entry, arg_vars + (V.Box(V.Var("r!0")),)),
                    Atom(IS_TRUE_PRED, (V.BinOpT(V.Var("r!0"), "!=", goal.expect.inner),)),
                ),
                tag=("goal", goal.fn, "equals"),
            )
        )
    else:
        raise TranslateError("UnsupportedGoalShape", f"unknown goal kind {goal.kind!r}")

    clauses.append(Clause((), None, (Atom(GOAL_PRED, ()),), tag=("goal", "query")))
    return CHCSystem(clauses, sigs)


# ---------------------------------------------------------------------------
# Text dump
# ---------------------------------------------------------------------------


def render_atom(atom: Atom) -> str:
    return f"{atom.pred}({', '.join(V.show(a) for a in atom.args)})"


def render_clause(clause: Clause) -> str:
    head = "false" if clause.head is None else render_atom(clause.head)
    body = " /\\ ".join(render_atom(a) for a in clause.body) if clause.body else "true"
    return f"{head} <= {body}"


def render_system(sys: CHCSystem) -> str:
    return "\n".join(render_clause(c) for c in sys.clauses) + "\n"
