"""Abstract syntax for the Cor language.

Cor is a small typed procedural language with Rust-style ownership:
every variable is a pointer (owning pointer, mutable reference or
immutable reference), control flow is unstructured (labeled statements
joined by gotos), and borrows are delimited by explicitly introduced
lifetime variables.

This module defines the type and instruction ASTs plus the structural
utilities the rest of the pipeline needs: memory size of a type,
completeness of recursive types, and the surface text of a type or a
sort, which error messages print.  It also holds the hash-consed node
base and the walks over mu-binders: capture-avoiding substitution,
unfolding, and a canonical form for comparing nodes up to renaming of
binders.  CHC sorts reuse these type nodes: a sort is a type whose
pointers are `logic`'s box and mut nodes, each a one-child node that
names its own keyword, so this module imports nothing from `logic`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional, Union

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Words that the surface grammar claims for itself; variables, labels and
# function names must avoid them.  `res` is claimed by the CHC translation
# for the result position of every predicate.
RESERVED_WORDS = frozenset(
    {
        "fn", "let", "mutbor", "drop", "immut", "swap", "copy", "as",
        "intro", "now", "return", "match", "goto", "rand",
        "inj0", "inj1", "mu", "own", "mut", "int", "unit", "bool",
        "true", "false", "box", "res",
    }
)

# Identifier-shaped words that SMT-LIB 2.6 reserves, and the core symbols
# the SMT-LIB emitter applies by name (it never applies `or` or `not`).
# A variable becomes a binder of the script: a reserved word is no legal
# binder, and a binder named like an applied symbol hides it.
SMT_RESERVED_WORDS = frozenset(
    {
        "_", "exists", "forall", "par", "BINARY", "DECIMAL", "HEXADECIMAL",
        "NUMERAL", "STRING", "assert", "echo", "exit", "pop", "push", "reset",
        "and", "ite", "distinct",
    }
)


# The constructors and selectors the SMT-LIB emitter declares
# (`smtlib._DATATYPES`) are named `<constructor or selector>_<datatype>`,
# and every datatype name starts with one of these prefixes.  A binder of
# that shape would hide the function where its clause applies it.
SMT_DATATYPE_SYMBOL_RE = re.compile(
    r"(mk|inj0|inj1|cur|proph|pay0|pay1|fst|snd)_(Unit|Box|Mut|Sum|Prod|Rec)")


class CorError(Exception):
    """Base class for all errors raised by the corhorn pipeline."""


class InvalidName(CorError):
    pass


def check_ident(name: str, what: str = "identifier") -> str:
    if (not IDENT_RE.match(name) or name in RESERVED_WORDS or name in SMT_RESERVED_WORDS
            or SMT_DATATYPE_SYMBOL_RE.match(name)):
        raise InvalidName(f"bad {what}: {name!r}")
    return name


# ---------------------------------------------------------------------------
# Interned nodes and the binder walks
# ---------------------------------------------------------------------------

_INTERNED: dict[tuple, "Interned"] = {}


class _Interning(type):
    def __call__(cls, *args, **kwargs):
        node = None if kwargs else _INTERNED.get((cls, *args))
        if node is None:
            node = super().__call__(*args, **kwargs)
            node = _INTERNED.setdefault((cls, *node.__reduce__()[1]), node)
        return node


class Interned(metaclass=_Interning):
    """A hash-consed node (Filliâtre & Conchon, ML Workshop 2006).
    Constructing one returns the one canonical node with its class and
    fields, so subclasses, frozen dataclasses with eq=False, compare by
    identity and hash in O(1).  The table keeps every node a process
    builds, each entered only once its __init__ has checked it."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


@lru_cache(maxsize=None)
def children(t: Interned) -> tuple:
    """The node-valued fields of t, in field order."""
    return tuple(f for f in t.__reduce__()[1] if isinstance(f, Interned))


@lru_cache(maxsize=None)
def height(t: Interned) -> int:
    """The number of nodes on t's longest path from the root."""
    return 1 + max(map(height, children(t)), default=0)


def map_children(t: Interned, fn) -> Interned:
    """t with fn applied to each node-valued field; t itself when fn
    changes none of them, by interning."""
    cls, fields = t.__reduce__()
    return cls(*(fn(f) if isinstance(f, Interned) else f for f in fields))


def subst(t: Interned, var: str, repl: Interned) -> Interned:
    """t[repl/var], capture-avoiding for mu-binders."""
    if isinstance(t, TypeVar):
        return repl if t.name == var else t
    if isinstance(t, Mu):
        if t.var == var:
            return t
        if t.var in free_vars(repl):
            # rename the binder away from repl's free variables
            fresh = t.var
            taken = free_vars(repl) | free_vars(t.body) | {var}
            while fresh in taken:
                fresh += "_"
            t = Mu(fresh, subst(t.body, t.var, TypeVar(fresh)))
    return map_children(t, lambda c: subst(c, var, repl))


def free_vars(t: Interned) -> frozenset[str]:
    if isinstance(t, TypeVar):
        return frozenset({t.name})
    out = frozenset().union(*map(free_vars, children(t)))
    return out - {t.var} if isinstance(t, Mu) else out


@lru_cache(maxsize=None)
def canon(t: Interned) -> Interned:
    """Rename mu-binders to position-derived names.

    The result is a canonical representative of the alpha-equivalence
    class, so structural equality on canon forms decides alpha-equality.
    Generated binder names use the reserved '!' character.
    """

    def walk(u: Interned, env: dict[str, str], depth: int) -> Interned:
        if isinstance(u, TypeVar):
            return TypeVar(env.get(u.name, u.name))
        if isinstance(u, Mu):
            name = f"X!{depth}"
            return Mu(name, walk(u.body, {**env, u.var: name}, depth + 1))
        return map_children(u, lambda c: walk(c, env, depth))

    return walk(t, {}, 0)


@lru_cache(maxsize=None)
def unfold(t: "Mu") -> Interned:
    """mu X. b to b[mu X. b/X]."""
    return subst(t.body, t.var, t)


@lru_cache(maxsize=None)
def whnf(t: Interned) -> Interned:
    """Unfold top-level mu-binders until a constructor appears."""
    while isinstance(t, Mu):
        t = unfold(t)
    return t


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

OWN = "own"
MUT = "mut"
IMMUT = "immut"


@dataclass(frozen=True, eq=False)
class TypeVar(Interned):
    name: str


@dataclass(frozen=True, eq=False)
class Mu(Interned):
    var: str
    body: "Type"


@dataclass(frozen=True, eq=False)
class Ptr(Interned):
    kind: str  # OWN | MUT | IMMUT
    lft: Optional[str]  # None exactly when kind == OWN
    target: "Type"

    def __post_init__(self):
        assert (self.kind == OWN) == (self.lft is None)


@dataclass(frozen=True, eq=False)
class Sum(Interned):
    left: "Type"
    right: "Type"


@dataclass(frozen=True, eq=False)
class Prod(Interned):
    left: "Type"
    right: "Type"


@dataclass(frozen=True, eq=False)
class IntT(Interned):
    pass


@dataclass(frozen=True, eq=False)
class UnitT(Interned):
    pass


INT = IntT()
UNIT = UnitT()
BOOL = Sum(UNIT, UNIT)  # surface sugar: bool = unit + unit

Type = Union[TypeVar, Mu, Ptr, Sum, Prod, IntT, UnitT]


def own(t: Type) -> Ptr:
    return Ptr(OWN, None, t)


def mut(lft: str, t: Type) -> Ptr:
    return Ptr(MUT, lft, t)


def immut(lft: str, t: Type) -> Ptr:
    return Ptr(IMMUT, lft, t)


def type_text(t: Type) -> str:
    """t in the surface syntax, which the parser reads back as t when t
    is a type; a sort's box and mut print as their keyword before the
    pointee, which no type is written as."""
    return _type_text(t, 0)


def _type_text(t: Type, prec: int) -> str:
    # precedence: 0 sum < 1 prod < 2 atom
    if t == BOOL:
        return "bool"
    if isinstance(t, Sum):
        s = f"{_type_text(t.left, 0)} + {_type_text(t.right, 1)}"
        return f"({s})" if prec > 0 else s
    if isinstance(t, Prod):
        s = f"{_type_text(t.left, 1)} * {_type_text(t.right, 2)}"
        return f"({s})" if prec > 1 else s
    if isinstance(t, Ptr):
        if t.kind == OWN:
            return f"own {_type_text(t.target, 2)}"
        return f"{t.kind}<'{t.lft}> {_type_text(t.target, 2)}"
    if isinstance(t, Mu):
        s = f"mu {t.var}. {_type_text(t.body, 0)}"
        return f"({s})" if prec > 0 else s
    if isinstance(t, TypeVar):
        return t.name
    if isinstance(t, IntT):
        return "int"
    if isinstance(t, UnitT):
        return "unit"
    (child,) = children(t)  # a sort's box or mut
    return f"{t.keyword} {_type_text(child, 2)}"


@lru_cache(maxsize=None)
def lifetimes_of(t: Type) -> frozenset[str]:
    """All lifetime variables occurring in t."""
    if isinstance(t, Ptr):
        base = frozenset() if t.lft is None else frozenset({t.lft})
        return base | lifetimes_of(t.target)
    return frozenset().union(*map(lifetimes_of, children(t)))


def subst_lifetimes(t: Type, mapping: dict[str, str]) -> Type:
    """t with its lifetimes renamed by mapping; t itself when it has none."""
    lfts = lifetimes_of(t)
    return _subst_lifetimes(t, tuple(mapping.get(l, l) for l in lfts)) if lfts else t


@lru_cache(maxsize=None)
def _subst_lifetimes(t: Type, images: tuple[str, ...]) -> Type:
    """Keyed on the images of lifetimes_of(t), in that set's own order."""
    mapping = dict(zip(lifetimes_of(t), images))
    if isinstance(t, Ptr):
        lft = mapping.get(t.lft, t.lft) if t.lft is not None else None
        return Ptr(t.kind, lft, subst_lifetimes(t.target, mapping))
    return map_children(t, lambda c: subst_lifetimes(c, mapping))


def is_complete(t: Type) -> bool:
    """True iff every type variable is mu-bound and guarded by a pointer.

    A guarded variable sits under at least one pointer constructor
    somewhere between its binder and the occurrence, which is what makes
    the memory size of the type well defined.
    """

    def walk(u: Type, guarded: dict[str, bool]) -> bool:
        if isinstance(u, TypeVar):
            return guarded.get(u.name, False)
        if isinstance(u, Mu):
            return walk(u.body, {**guarded, u.var: False})
        if isinstance(u, Ptr):
            return walk(u.target, {v: True for v in guarded})
        return all(walk(c, guarded) for c in children(u))

    return walk(t, {})


class IncompleteType(CorError):
    pass


@lru_cache(maxsize=None)
def size_of(t: Type) -> int:
    """Number of memory cells a value of type t occupies at the top level.

    Pointers and ints take one cell, unit takes none, a sum takes a tag
    cell plus the larger payload, a product concatenates its components.
    Recursive types unfold; termination relies on completeness (every
    recursive occurrence hides behind a pointer, which stops recursion).
    """
    if isinstance(t, (Ptr, IntT)):
        return 1
    if isinstance(t, UnitT):
        return 0
    if isinstance(t, Sum):
        return 1 + max(size_of(t.left), size_of(t.right))
    if isinstance(t, Prod):
        return size_of(t.left) + size_of(t.right)
    if isinstance(t, Mu):
        return size_of(unfold(t))
    raise IncompleteType(f"size of incomplete type: {type_text(t)}")


def sum_side(t: Sum, tag: int) -> tuple[Type, range]:
    """The payload type of side `tag` of t, and the offsets from the tag
    cell of the zero padding cells that fill the payload out to the
    larger side's size."""
    side = t.left if tag == 0 else t.right
    return side, range(1 + size_of(side), size_of(t))


# ---------------------------------------------------------------------------
# Constants and operators
# ---------------------------------------------------------------------------

# A constant is either an int or the unit value, modeled as the empty tuple.
Const = Union[int, tuple]
UNIT_CONST: tuple = ()

INT_OPS = ("+", "-", "*")
BOOL_OPS = (">=", "<=", "==", "!=", "<", ">")


def op_result_type(op: str) -> Type:
    if op in INT_OPS:
        return INT
    if op in BOOL_OPS:
        return BOOL
    raise CorError(f"unknown operator {op!r}")


def eval_op(op: str, a: int, b: int) -> int | bool:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == ">=":
        return a >= b
    if op == "<=":
        return a <= b
    if op == "==":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == ">":
        return a > b
    raise CorError(f"unknown operator {op!r}")


# ---------------------------------------------------------------------------
# Instructions and statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MutBor:
    """let y = mutbor 'a x"""
    y: str
    lft: str
    x: str


@dataclass(frozen=True)
class Drop:
    x: str


@dataclass(frozen=True)
class Immut:
    x: str


@dataclass(frozen=True)
class Swap:
    x: str
    y: str


@dataclass(frozen=True)
class MakePtr:
    """let *y = x"""
    y: str
    x: str


@dataclass(frozen=True)
class Deref:
    """let y = *x"""
    y: str
    x: str


@dataclass(frozen=True)
class CopyDeref:
    """let *y = copy *x"""
    y: str
    x: str


@dataclass(frozen=True)
class TypeWeaken:
    """x as T"""
    x: str
    ty: Type


@dataclass(frozen=True)
class Call:
    """let y = g<'a,...>(x0,...)"""
    y: str
    fn: str
    lfts: tuple[str, ...]
    args: tuple[str, ...]


@dataclass(frozen=True)
class IntroLft:
    lft: str


@dataclass(frozen=True)
class NowLft:
    lft: str


@dataclass(frozen=True)
class LftLeq:
    lo: str
    hi: str


@dataclass(frozen=True)
class ConstInstr:
    """let *y = c"""
    y: str
    value: Const


@dataclass(frozen=True)
class BinOpInstr:
    """let *y = *x op *x2"""
    y: str
    x: str
    op: str
    x2: str


@dataclass(frozen=True)
class RandInstr:
    """let *y = rand()"""
    y: str


@dataclass(frozen=True)
class InjInstr:
    """let *y = inj_i<T0+T1> *x"""
    y: str
    index: int
    sum_type: Sum
    x: str


@dataclass(frozen=True)
class MakePair:
    """let *y = (*x0, *x1)"""
    y: str
    x0: str
    x1: str


@dataclass(frozen=True)
class DestructPair:
    """let (*y0, *y1) = *x"""
    y0: str
    y1: str
    x: str


Instruction = Union[
    MutBor, Drop, Immut, Swap, MakePtr, Deref, CopyDeref, TypeWeaken,
    Call, IntroLft, NowLft, LftLeq, ConstInstr, BinOpInstr, RandInstr,
    InjInstr, MakePair, DestructPair,
]


def bound_vars(instr: Instruction) -> tuple[str, ...]:
    """Variables an instruction introduces (left-hand side of its let)."""
    if isinstance(instr, (MutBor, MakePtr, Deref, CopyDeref, Call, ConstInstr,
                          BinOpInstr, RandInstr, InjInstr, MakePair)):
        return (instr.y,)
    if isinstance(instr, DestructPair):
        return (instr.y0, instr.y1)
    return ()


@dataclass(frozen=True)
class StmtInstr:
    instr: Instruction
    goto: str


@dataclass(frozen=True)
class StmtReturn:
    x: str


@dataclass(frozen=True)
class StmtMatch:
    """match *x { inj0 *y0 => goto l0, inj1 *y1 => goto l1 }"""
    x: str
    y0: str
    l0: str
    y1: str
    l1: str


Statement = Union[StmtInstr, StmtReturn, StmtMatch]

ENTRY = "entry"


class ProgramError(CorError):
    """Structural (not type) error in a program: bad labels, duplicate
    definitions, unreachable code, incomplete signature types."""


class UnknownFunction(ProgramError):
    code = "UnknownFunction"


@dataclass(frozen=True)
class FunctionDef:
    name: str
    lft_params: tuple[str, ...]
    lft_constraints: tuple[tuple[str, str], ...]  # (lo, hi) meaning lo <= hi
    params: tuple[tuple[str, Type], ...]
    ret: Type
    body: dict[str, Statement] = field(hash=False)

    def is_simple(self) -> bool:
        """A simple function takes no lifetime parameters; its boundary
        types then cannot mention references, so calls to it have a plain
        value-level input/output meaning."""
        return not self.lft_params


@dataclass(frozen=True)
class Program:
    """A whole program; it validates itself on construction, so every
    Program the pipeline sees is well-formed."""

    functions: dict[str, FunctionDef] = field(hash=False)

    def __post_init__(self):
        for fn in self:
            validate_function(fn)
        for fn in self:
            for label, stmt in fn.body.items():
                if isinstance(stmt, StmtInstr) and isinstance(stmt.instr, Call):
                    if stmt.instr.fn not in self.functions:
                        raise ProgramError(
                            f"{fn.name}:{label}: call to undefined function {stmt.instr.fn!r}"
                        )

    def __iter__(self) -> Iterable[FunctionDef]:
        return iter(self.functions.values())

    def fn(self, name: str) -> FunctionDef:
        try:
            return self.functions[name]
        except KeyError:
            raise UnknownFunction(f"[UnknownFunction] no function named {name!r}") from None


def successors(stmt: Statement) -> tuple[str, ...]:
    if isinstance(stmt, StmtInstr):
        return (stmt.goto,)
    if isinstance(stmt, StmtMatch):
        return (stmt.l0, stmt.l1)
    return ()


def validate_function(fn: FunctionDef) -> None:
    check_ident(fn.name, "function name")
    if len(set(fn.lft_params)) != len(fn.lft_params):
        raise ProgramError(f"{fn.name}: duplicate lifetime parameters")
    for lo, hi in fn.lft_constraints:
        if lo not in fn.lft_params or hi not in fn.lft_params:
            raise ProgramError(f"{fn.name}: constraint on unknown lifetime {lo} <= {hi}")
    names = [x for x, _ in fn.params]
    if len(set(names)) != len(names):
        raise ProgramError(f"{fn.name}: duplicate parameter names")
    for x, t in fn.params:
        check_ident(x, "parameter")
        if not (isinstance(t, Ptr) and is_complete(t)):
            raise ProgramError(f"{fn.name}: parameter {x} must have a complete pointer type")
    if not (isinstance(fn.ret, Ptr) and is_complete(fn.ret)):
        raise ProgramError(f"{fn.name}: return type must be a complete pointer type")
    if ENTRY not in fn.body:
        raise ProgramError(f"{fn.name}: missing entry label")
    for label, stmt in fn.body.items():
        check_ident(label, "label")
        for target in successors(stmt):
            if target not in fn.body:
                raise ProgramError(
                    f"{fn.name}: goto target {target!r} undefined (at {label})"
                )
        if isinstance(stmt, StmtMatch):
            check_ident(stmt.y0, "variable")
            check_ident(stmt.y1, "variable")
        if isinstance(stmt, StmtInstr):
            bs = bound_vars(stmt.instr)
            for y in bs:
                check_ident(y, "variable")
            if len(set(bs)) != len(bs):
                raise ProgramError(f"{fn.name}:{label}: bound variables must be distinct")
            if isinstance(stmt.instr, Swap) and stmt.instr.x == stmt.instr.y:
                raise ProgramError(f"{fn.name}:{label}: swap operands must be distinct")
            if isinstance(stmt.instr, MakePair) and stmt.instr.x0 == stmt.instr.x1:
                raise ProgramError(f"{fn.name}:{label}: pair operands must be distinct")
            if isinstance(stmt.instr, Call) and len(set(stmt.instr.args)) != len(stmt.instr.args):
                raise ProgramError(f"{fn.name}:{label}: call arguments must be distinct")
    # syntactic reachability from entry
    seen = {ENTRY}
    work = [ENTRY]
    while work:
        for target in successors(fn.body[work.pop()]):
            if target not in seen:
                seen.add(target)
                work.append(target)
    unreachable = set(fn.body) - seen
    if unreachable:
        raise ProgramError(f"{fn.name}: unreachable labels {sorted(unreachable)}")
