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


_CHILDREN = {
    Box: lambda t: (t.inner,),
    MutPair: lambda t: (t.cur, t.fin),
    Inj: lambda t: (t.payload,),
    Pair: lambda t: (t.fst, t.snd),
    DerefT: lambda t: (t.arg,),
    FinalT: lambda t: (t.arg,),
    ProjT: lambda t: (t.arg,),
    BinOpT: lambda t: (t.left, t.right),
}


def children(t: Term) -> tuple[Term, ...]:
    get = _CHILDREN.get(type(t))
    return get(t) if get else ()


_REBUILD = {
    Box: lambda t, k: Box(k[0]),
    MutPair: lambda t, k: MutPair(k[0], k[1]),
    Inj: lambda t, k: Inj(t.tag, k[0]),
    Pair: lambda t, k: Pair(k[0], k[1]),
    DerefT: lambda t, k: DerefT(k[0]),
    FinalT: lambda t, k: FinalT(k[0]),
    ProjT: lambda t, k: ProjT(k[0], t.index),
    BinOpT: lambda t, k: BinOpT(k[0], t.op, k[1]),
}


def rebuild(t: Term, kids: tuple[Term, ...]) -> Term:
    make = _REBUILD.get(type(t))
    return make(t, kids) if make else t


def map_children(t: Term, fn) -> Term:
    """t with fn applied to each child; t itself when fn returns every
    child unchanged, so walks allocate only along changed paths."""
    kids = children(t)
    new = tuple([fn(k) for k in kids])
    for a, b in zip(new, kids):
        if a is not b:
            return rebuild(t, new)
    return t


def subst_absvars(t: Term, mapping: dict[int, Term]) -> Term:
    """t with the abstract variables bound in mapping replaced; t
    itself when it has none of them."""
    if type(t) is AbsVar:
        return mapping.get(t.uid, t)
    if type(t) in _CHILDREN:
        return map_children(t, lambda k: subst_absvars(k, mapping))
    return t


def subst_vars(t: Term, mapping: dict[str, Term]) -> Term:
    """t with the variables bound in mapping replaced; t itself when it
    has none of them."""
    if type(t) is Var:
        return mapping.get(t.name, t)
    if type(t) in _CHILDREN:
        return map_children(t, lambda k: subst_vars(k, mapping))
    return t


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


def show(t: Term, rename=None) -> str:
    """Compact text form: box(v), mut(v,w), inj0 v, (v,w), *t, ^t, t.i.
    `rename`, if given, maps each variable name to the name shown."""
    typ = type(t)
    if typ is Var:
        return t.name if rename is None else rename(t.name)
    if typ is int:
        return str(t)
    if typ is Inj:
        return f"inj{t.tag} {show_atom(t.payload, rename)}"
    if typ is Pair:
        return f"({show(t.fst, rename)}, {show(t.snd, rename)})"
    if typ is Box:
        return f"box({show(t.inner, rename)})"
    if typ is MutPair:
        return f"mut({show(t.cur, rename)}, {show(t.fin, rename)})"
    if typ is UnitVal:
        return "()"
    if typ is bool:  # guard: Python bools are ints
        return "1" if t else "0"
    if typ is AbsVar:
        return t.label or f"?{t.uid}"
    if typ is DerefT:
        return f"*{show_atom(t.arg, rename)}"
    if typ is FinalT:
        return f"^{show_atom(t.arg, rename)}"
    if typ is ProjT:
        return f"{show_atom(t.arg, rename)}.{t.index}"
    if typ is BinOpT:
        return f"{show_atom(t.left, rename)} {t.op} {show_atom(t.right, rename)}"
    raise TypeError(f"not a term: {t!r}")


def show_atom(t: Term, rename=None) -> str:
    s = show(t, rename)
    if type(t) is BinOpT or type(t) is Inj:
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
