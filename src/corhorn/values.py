"""Values, pre-values and logical terms.

One constructor family serves three roles:

* values       -- ground trees of Box/MutPair/Inj/Pair over int and unit;
* pre-values   -- values with AbsVar leaves standing for the not-yet-known
                  final value of a mutable borrow (used by the heap-free
                  interpreter);
* terms        -- values with Var leaves plus the computational forms
                  Deref(*t), Final(^t), Proj(t.i) and BinOp (used by the
                  clause logic; patterns are the Deref-free fragment).

Sharing the constructors keeps substitution, matching and printing in one
place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union


@dataclass(frozen=True)
class UnitVal:
    def __repr__(self):
        return "()"


UNIT = UnitVal()


@dataclass(frozen=True)
class Box:
    inner: "Term"


@dataclass(frozen=True)
class MutPair:
    cur: "Term"
    fin: "Term"


@dataclass(frozen=True)
class Inj:
    tag: int
    payload: "Term"


@dataclass(frozen=True)
class Pair:
    fst: "Term"
    snd: "Term"


@dataclass(frozen=True)
class AbsVar:
    """Abstract (prophecy) variable: the value a mutable reference will
    hold when its borrow ends.  Identity is the numeric id; the label is
    display-only."""

    uid: int
    label: str = field(compare=False, default="")


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class DerefT:
    """*t: current value of a box or mutable-reference term."""
    arg: "Term"


@dataclass(frozen=True)
class FinalT:
    """^t: final (prophesied) value of a mutable-reference term."""
    arg: "Term"


@dataclass(frozen=True)
class ProjT:
    arg: "Term"
    index: int


@dataclass(frozen=True)
class BinOpT:
    left: "Term"
    op: str
    right: "Term"


Term = Union[int, UnitVal, Box, MutPair, Inj, Pair, AbsVar, Var, DerefT, FinalT, ProjT, BinOpT]
Value = Term  # the ground constructor-only fragment
PreValue = Term  # values plus AbsVar leaves

TRUE = Inj(1, UNIT)
FALSE = Inj(0, UNIT)


def is_value(t: Term) -> bool:
    if isinstance(t, (int, UnitVal)):
        return True
    if isinstance(t, Box):
        return is_value(t.inner)
    if isinstance(t, MutPair):
        return is_value(t.cur) and is_value(t.fin)
    if isinstance(t, Inj):
        return is_value(t.payload)
    if isinstance(t, Pair):
        return is_value(t.fst) and is_value(t.snd)
    return False


def is_pattern(t: Term) -> bool:
    if isinstance(t, Var):
        return True
    if isinstance(t, (int, UnitVal)):
        return True
    if isinstance(t, Box):
        return is_pattern(t.inner)
    if isinstance(t, MutPair):
        return is_pattern(t.cur) and is_pattern(t.fin)
    if isinstance(t, Inj):
        return is_pattern(t.payload)
    if isinstance(t, Pair):
        return is_pattern(t.fst) and is_pattern(t.snd)
    return False


def children(t: Term) -> tuple[Term, ...]:
    if isinstance(t, Box):
        return (t.inner,)
    if isinstance(t, MutPair):
        return (t.cur, t.fin)
    if isinstance(t, Inj):
        return (t.payload,)
    if isinstance(t, Pair):
        return (t.fst, t.snd)
    if isinstance(t, (DerefT, FinalT)):
        return (t.arg,)
    if isinstance(t, ProjT):
        return (t.arg,)
    if isinstance(t, BinOpT):
        return (t.left, t.right)
    return ()


def rebuild(t: Term, kids: tuple[Term, ...]) -> Term:
    if isinstance(t, Box):
        return Box(kids[0])
    if isinstance(t, MutPair):
        return MutPair(kids[0], kids[1])
    if isinstance(t, Inj):
        return Inj(t.tag, kids[0])
    if isinstance(t, Pair):
        return Pair(kids[0], kids[1])
    if isinstance(t, DerefT):
        return DerefT(kids[0])
    if isinstance(t, FinalT):
        return FinalT(kids[0])
    if isinstance(t, ProjT):
        return ProjT(kids[0], t.index)
    if isinstance(t, BinOpT):
        return BinOpT(kids[0], t.op, kids[1])
    return t


def map_term(t: Term, fn) -> Term:
    """Apply fn to leaves (Var/AbsVar/consts); rebuild interior nodes."""
    kids = children(t)
    if not kids and isinstance(t, (Var, AbsVar, int, UnitVal)):
        return fn(t)
    if not kids:
        return t
    return rebuild(t, tuple(map_term(k, fn) for k in kids))


def subst_absvars(t: Term, mapping: dict[int, Term]) -> Term:
    return map_term(t, lambda leaf: mapping.get(leaf.uid, leaf) if isinstance(leaf, AbsVar) else leaf)


def subst_vars(t: Term, mapping: dict[str, Term]) -> Term:
    return map_term(t, lambda leaf: mapping.get(leaf.name, leaf) if isinstance(leaf, Var) else leaf)


def absvars_in(t: Term) -> set[int]:
    out: set[int] = set()

    def go(u: Term):
        if isinstance(u, AbsVar):
            out.add(u.uid)
        for k in children(u):
            go(k)

    go(t)
    return out


def vars_in(t: Term) -> set[str]:
    out: set[str] = set()

    def go(u: Term):
        if isinstance(u, Var):
            out.add(u.name)
        for k in children(u):
            go(k)

    go(t)
    return out


def show(t: Term) -> str:
    """Compact text form: box(v), mut(v,w), inj0 v, (v,w), *t, ^t, t.i."""
    if isinstance(t, bool):  # guard: Python bools are ints
        return "1" if t else "0"
    if isinstance(t, int):
        return str(t)
    if isinstance(t, UnitVal):
        return "()"
    if isinstance(t, Box):
        return f"box({show(t.inner)})"
    if isinstance(t, MutPair):
        return f"mut({show(t.cur)}, {show(t.fin)})"
    if isinstance(t, Inj):
        return f"inj{t.tag} {show_atom(t.payload)}"
    if isinstance(t, Pair):
        return f"({show(t.fst)}, {show(t.snd)})"
    if isinstance(t, AbsVar):
        return t.label or f"?{t.uid}"
    if isinstance(t, Var):
        return t.name
    if isinstance(t, DerefT):
        return f"*{show_atom(t.arg)}"
    if isinstance(t, FinalT):
        return f"^{show_atom(t.arg)}"
    if isinstance(t, ProjT):
        return f"{show_atom(t.arg)}.{t.index}"
    if isinstance(t, BinOpT):
        return f"{show_atom(t.left)} {t.op} {show_atom(t.right)}"
    raise TypeError(f"not a term: {t!r}")


def show_atom(t: Term) -> str:
    s = show(t)
    if isinstance(t, (BinOpT, Inj)):
        return f"({s})"
    return s


def to_json(t: Term):
    if isinstance(t, bool):
        return int(t)
    if isinstance(t, int):
        return t
    if isinstance(t, UnitVal):
        return "unit"
    if isinstance(t, Box):
        return {"box": to_json(t.inner)}
    if isinstance(t, MutPair):
        return {"mut": [to_json(t.cur), to_json(t.fin)]}
    if isinstance(t, Inj):
        return {"inj": [t.tag, to_json(t.payload)]}
    if isinstance(t, Pair):
        return {"pair": [to_json(t.fst), to_json(t.snd)]}
    if isinstance(t, AbsVar):
        return {"abs": [t.uid, t.label]}
    if isinstance(t, Var):
        return {"var": t.name}
    raise TypeError(f"not serializable: {t!r}")
