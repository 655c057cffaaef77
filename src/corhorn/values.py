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
place.  Every term walk maps a node through `map_children`, one map per
node type, which keeps the node itself when no child changed.

Each compound node caches facts about itself the first time a walk asks:
whether it is closed (no Var below it), whether it is a pattern, and its
distinct Var leaves.  A pre-value with a prophecy variable also caches
its term (`_term`, by `harness.resolutive_of`): the term with logic
variables for its prophecy variables, with the sort it was rendered at
and the sorts of those variables.  A cached fact is a pure function of
the node's immutable fields (and of the sort it records), so it can
never go stale, and it is left out of equality, hashing, repr, copies
and pickles.  `logic.subst_reduce`,
which substitutes and reduces in one walk, may therefore return a value
(a closed pattern) unchanged without walking it, and `logic.match_into`
matches a term against itself through its cached leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union


@dataclass(frozen=True)
class UnitVal:
    def __repr__(self):
        return "()"


UNIT = UnitVal()


class _Node:
    """Base of the compound terms: the lazily cached facts (None until
    first asked) live in the instance __dict__, beside the fields."""

    _closed = _pattern = _vars = _term = None

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k[0] != "_"}


class Redex(_Node):
    """Base of the computational forms, which are never patterns."""

    _pattern = False


@dataclass(frozen=True)
class Box(_Node):
    inner: "Term"


@dataclass(frozen=True)
class MutPair(_Node):
    cur: "Term"
    fin: "Term"


@dataclass(frozen=True)
class Inj(_Node):
    tag: int
    payload: "Term"


@dataclass(frozen=True)
class Pair(_Node):
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
class DerefT(Redex):
    """*t: current value of a box or mutable-reference term."""
    arg: "Term"


@dataclass(frozen=True)
class FinalT(Redex):
    """^t: final (prophesied) value of a mutable-reference term."""
    arg: "Term"


@dataclass(frozen=True)
class ProjT(Redex):
    arg: "Term"
    index: int


@dataclass(frozen=True)
class BinOpT(Redex):
    left: "Term"
    op: str
    right: "Term"


Term = Union[int, UnitVal, Box, MutPair, Inj, Pair, AbsVar, Var, DerefT, FinalT, ProjT, BinOpT]
Value = Term  # the ground constructor-only fragment
PreValue = Term  # values plus AbsVar leaves

TRUE = Inj(1, UNIT)
FALSE = Inj(0, UNIT)


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


def is_closed(t: Term) -> bool:
    """No Var anywhere in t (cached on compound nodes)."""
    if isinstance(t, _Node):
        c = t._closed
        if c is None:
            c = t.__dict__["_closed"] = all(map(is_closed, children(t)))
        return c
    return type(t) is not Var


def is_pattern(t: Term) -> bool:
    """t is built from variables, ints, unit and the constructors only
    (cached on compound nodes)."""
    if isinstance(t, _Node):
        p = t._pattern
        if p is None:
            p = t.__dict__["_pattern"] = all(map(is_pattern, children(t)))
        return p
    return isinstance(t, (Var, int, UnitVal))


def var_leaves(t: Term) -> tuple[Var, ...]:
    """The distinct Var leaves of t, in the order of their first
    occurrence (cached on compound nodes)."""
    if isinstance(t, _Node):
        vs = t._vars
        if vs is None:
            parts = [p for p in map(var_leaves, children(t)) if p]
            if len(parts) < 2:
                vs = parts[0] if parts else ()
            else:
                seen: dict[str, Var] = {}
                for p in parts:
                    for v in p:
                        seen.setdefault(v.name, v)
                vs = tuple(seen.values())
            t.__dict__["_vars"] = vs
        return vs
    return (t,) if type(t) is Var else ()


def is_value(t: Term) -> bool:
    """t is ground: a pattern (so no AbsVar) that is closed (no Var)."""
    return is_pattern(t) and is_closed(t)


# One map per node type (`map_children`).  A node of two children tests
# them with `&`, not `and`, so that fn runs on the right child, after the
# left, whatever it returned for the left.
_MAP = {
    Box: lambda t, fn: t if (k := fn(t.inner)) is t.inner else Box(k),
    MutPair: lambda t, fn: t if ((a := fn(t.cur)) is t.cur) & ((b := fn(t.fin)) is t.fin)
    else MutPair(a, b),
    Inj: lambda t, fn: t if (k := fn(t.payload)) is t.payload else Inj(t.tag, k),
    Pair: lambda t, fn: t if ((a := fn(t.fst)) is t.fst) & ((b := fn(t.snd)) is t.snd)
    else Pair(a, b),
    DerefT: lambda t, fn: t if (k := fn(t.arg)) is t.arg else DerefT(k),
    FinalT: lambda t, fn: t if (k := fn(t.arg)) is t.arg else FinalT(k),
    ProjT: lambda t, fn: t if (k := fn(t.arg)) is t.arg else ProjT(k, t.index),
    BinOpT: lambda t, fn: t if ((a := fn(t.left)) is t.left) & ((b := fn(t.right)) is t.right)
    else BinOpT(a, t.op, b),
}


def map_children(t: Term, fn) -> Term:
    """t with fn applied to each child; t itself when fn returns every
    child unchanged, so walks allocate only along changed paths."""
    m = _MAP.get(type(t))
    return m(t, fn) if m else t


def subst_absvars(t: Term, mapping: dict[int, Term]) -> Term:
    """t with the abstract variables bound in mapping replaced; t
    itself when it has none of them.  Two frames per level, the walk
    and its `_MAP` entry, so the abstract interpreter resolves a
    prophecy inside a deep value."""

    def walk(u: Term) -> Term:
        typ = type(u)
        if typ is AbsVar:
            return mapping.get(u.uid, u)
        m = _MAP.get(typ)
        return m(u, walk) if m else u

    return walk(t)


def vars_in(t: Term) -> set[str]:
    return {v.name for v in var_leaves(t)}


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
