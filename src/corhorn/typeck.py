"""Borrow-aware type checker.

Every (function, label) pair gets a whole context: a variable context
mapping each live variable to an activeness flag (active, or frozen
until some lifetime) and a complete pointer type, plus a preordered set
of lifetime variables.  Contexts are propagated from `entry` along goto
edges; a label reached twice must be reached with syntactically equal
contexts (up to renaming of mu-binders) -- there is no implicit
weakening, programs say `x as T` where they need it.

The rules raise a `TypeCheckError` without a location; `type_program`,
which knows the function and label it is typing, adds both.  Programs
are well-formed by construction (`syntax.Program`).

`subtype` has pointer rules and one covariant rule for every other
node, so on sorts it is `logic.sort_equiv`; `is_copy` is the one Copy
test, which both `copy` and `drop` ask.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from . import syntax as S
from .syntax import Type, type_text


class TypeCheckError(S.CorError):
    def __init__(self, code: str, msg: str, fn: str = "?", label: str = "?"):
        super().__init__(f"{fn}:{label}: [{code}] {msg}")
        self.code = code
        self.msg = msg
        self.fn = fn
        self.label = label


@dataclass(frozen=True)
class VarInfo:
    ty: Type
    frozen_at: Optional[str] = None  # None = active

    @property
    def active(self) -> bool:
        return self.frozen_at is None


@dataclass(frozen=True)
class LftCtx:
    """Finite preorder of lifetime variables; `order` is kept reflexive
    and transitively closed."""

    carrier: frozenset[str]
    order: frozenset[tuple[str, str]]

    @staticmethod
    def empty() -> "LftCtx":
        return LftCtx(frozenset(), frozenset())

    @staticmethod
    def make(carrier, pairs) -> "LftCtx":
        carrier = frozenset(carrier)
        rel = {(a, a) for a in carrier} | set(pairs)
        return LftCtx(carrier, _close(rel))

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self.order

    def add(self, lft: str, below: frozenset[str]) -> "LftCtx":
        """Add a fresh lifetime ordered before itself and everything in
        `below`."""
        pairs = set(self.order) | {(lft, lft)} | {(lft, b) for b in below}
        return LftCtx(self.carrier | {lft}, _close(pairs))

    def remove(self, lft: str) -> "LftCtx":
        pairs = {(a, b) for a, b in self.order if lft not in (a, b)}
        return LftCtx(self.carrier - {lft}, frozenset(pairs))

    def relate(self, lo: str, hi: str) -> "LftCtx":
        return LftCtx(self.carrier, _close(set(self.order) | {(lo, hi)}))


def _close(pairs: set[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    rel = set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return frozenset(rel)


@dataclass(frozen=True)
class WholeCtx:
    gamma: dict[str, VarInfo] = field(hash=False)
    lft: LftCtx = LftCtx.empty()

    def canon(self):
        gam = tuple(
            sorted((x, vi.frozen_at, S.canon(vi.ty)) for x, vi in self.gamma.items())
        )
        return (gam, self.lft.carrier, self.lft.order)

    def same(self, other: "WholeCtx") -> bool:
        return self.canon() == other.canon()

    def with_gamma(self, gamma: dict[str, VarInfo]) -> "WholeCtx":
        return WholeCtx(gamma, self.lft)

    def with_lft(self, lft: LftCtx) -> "WholeCtx":
        return WholeCtx(self.gamma, lft)


# ---------------------------------------------------------------------------
# Subtyping and Copy
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def subtype(lft: LftCtx, t: Type, u: Type) -> bool:
    """Decide t <= u under the lifetime preorder.

    Equi-recursive: mu-types are unfolded on demand and candidate pairs
    are assumed true while their derivation is in progress, which is the
    standard coinductive decision procedure.
    """
    return _subtype(lft, t, u, frozenset())


def _subtype(lft: LftCtx, t: Type, u: Type, _seen: frozenset) -> bool:
    key = (S.canon(t), S.canon(u))
    if key[0] == key[1] or key in _seen:
        return True
    seen = _seen | {key}
    tw, uw = S.whnf(t), S.whnf(u)
    if isinstance(tw, S.Ptr) and isinstance(uw, S.Ptr):
        if tw.kind == S.OWN and uw.kind == S.OWN:
            return _subtype(lft, tw.target, uw.target, seen)
        if tw.kind == S.IMMUT and uw.kind == S.IMMUT:
            return lft.leq(uw.lft, tw.lft) and _subtype(lft, tw.target, uw.target, seen)
        if tw.kind == S.MUT and uw.kind == S.MUT:
            return (
                lft.leq(uw.lft, tw.lft)
                and _subtype(lft, tw.target, uw.target, seen)
                and _subtype(lft, uw.target, tw.target, seen)
            )
        return False
    # every other node is covariant: its class, its other fields, and
    # its node fields related pairwise
    (tc, tf), (uc, uf) = tw.__reduce__(), uw.__reduce__()
    return tc is uc and all(
        _subtype(lft, a, b, seen) if isinstance(a, S.Interned) else a == b for a, b in zip(tf, uf)
    )


def type_equiv(lft: LftCtx, t: Type, u: Type) -> bool:
    return subtype(lft, t, u) and subtype(lft, u, t)


def is_copy(t: Type) -> bool:
    """Int, unit and immutable references are copyable; ownership and
    mutable borrows are not; sums, products and mu close it up."""
    if isinstance(t, (S.IntT, S.UnitT)):
        return True
    if isinstance(t, S.Ptr):
        return t.kind == S.IMMUT
    if isinstance(t, (S.Sum, S.Prod)):
        return is_copy(t.left) and is_copy(t.right)
    if isinstance(t, S.Mu):
        return is_copy(t.body)
    # a bare type variable is only reachable for incomplete types
    return False


# ---------------------------------------------------------------------------
# Instruction typing
# ---------------------------------------------------------------------------


def _err(code: str, msg: str):
    raise TypeCheckError(code, msg)


def _take_active(wc: WholeCtx, x: str, code_frozen: str) -> VarInfo:
    vi = wc.gamma.get(x)
    if vi is None:
        _err("UnknownVariable", f"variable {x!r} not in context")
    if not vi.active:
        _err(code_frozen, f"variable {x!r} is frozen until '{vi.frozen_at}")
    return vi


def _bind_fresh(gamma: dict[str, VarInfo], y: str, vi: VarInfo):
    if y in gamma:
        _err("VariableRedefined", f"variable {y!r} already in context")
    gamma[y] = vi


def _check_complete(t: Type):
    if not S.is_complete(t):
        _err("IncompleteType", "type written in instruction must be complete")


def type_instruction(
    prog: S.Program, fn: S.FunctionDef, instr: S.Instruction, wc: WholeCtx
) -> WholeCtx:
    """The unique successor whole context of one instruction, or a
    diagnostic without a location (`type_program` adds it).  Mirrors one
    typing rule per instruction form."""
    a_ex = frozenset(fn.lft_params)
    gamma = dict(wc.gamma)
    lctx = wc.lft

    if isinstance(instr, S.MutBor):
        if instr.lft not in lctx.carrier:
            _err("UnknownLifetime", f"lifetime '{instr.lft} not introduced")
        if instr.lft in a_ex:
            _err("LifetimeParamBorrow", "cannot borrow at a lifetime parameter")
        vi = _take_active(wc, instr.x, "BorrowOfFrozen")
        if not (isinstance(vi.ty, S.Ptr) and vi.ty.kind in (S.OWN, S.MUT)):
            _err("TypeMismatch", f"mutbor needs an owning pointer or mut ref, got {type_text(vi.ty)}")
        for gam in sorted(S.lifetimes_of(vi.ty)):
            if not lctx.leq(instr.lft, gam):
                msg = f"'{instr.lft} must end before '{gam} of the borrowed data"
                _err("BorrowOutlivesData", msg)
        del gamma[instr.x]
        gamma[instr.x] = VarInfo(vi.ty, frozen_at=instr.lft)
        _bind_fresh(gamma, instr.y, VarInfo(S.mut(instr.lft, vi.ty.target)))
        return wc.with_gamma(gamma)

    if isinstance(instr, S.Drop):
        vi = _take_active(wc, instr.x, "FrozenVariable")
        t = vi.ty
        if isinstance(t, S.Ptr) and t.kind == S.OWN and not is_copy(t.target):
            _err(
                "DropOfBorrowGuardedOwn",
                "cannot drop an owner whose payload holds unguarded owners or mut refs",
            )
        del gamma[instr.x]
        return wc.with_gamma(gamma)

    if isinstance(instr, S.Immut):
        vi = _take_active(wc, instr.x, "FrozenVariable")
        if not (isinstance(vi.ty, S.Ptr) and vi.ty.kind == S.MUT):
            _err("TypeMismatch", f"immut needs a mutable reference, got {type_text(vi.ty)}")
        gamma[instr.x] = VarInfo(S.immut(vi.ty.lft, vi.ty.target))
        return wc.with_gamma(gamma)

    if isinstance(instr, S.Swap):
        vx = _take_active(wc, instr.x, "FrozenVariable")
        vy = _take_active(wc, instr.y, "FrozenVariable")
        if not (isinstance(vx.ty, S.Ptr) and vx.ty.kind == S.MUT):
            _err("TypeMismatch", "swap's first operand must be a mutable reference")
        if not (isinstance(vy.ty, S.Ptr) and vy.ty.kind in (S.OWN, S.MUT)):
            _err("TypeMismatch", "swap's second operand must be own or mut")
        if S.canon(vx.ty.target) != S.canon(vy.ty.target):
            _err("TypeMismatch", "swap operands must point at the same type")
        return wc

    if isinstance(instr, S.MakePtr):
        vi = _take_active(wc, instr.x, "FrozenVariable")
        del gamma[instr.x]
        _bind_fresh(gamma, instr.y, VarInfo(S.own(vi.ty)))
        return wc.with_gamma(gamma)

    if isinstance(instr, S.Deref):
        vi = _take_active(wc, instr.x, "FrozenVariable")
        outer = vi.ty
        if not (isinstance(outer, S.Ptr) and isinstance(outer.target, S.Ptr)):
            _err("TypeMismatch", f"deref needs a pointer to a pointer, got {type_text(outer)}")
        inner = outer.target
        if outer.kind == S.OWN:
            composed = inner
        elif inner.kind == S.OWN:
            composed = S.Ptr(outer.kind, outer.lft, inner.target)
        else:
            kind = S.MUT if (outer.kind == S.MUT and inner.kind == S.MUT) else S.IMMUT
            composed = S.Ptr(kind, outer.lft, inner.target)
        del gamma[instr.x]
        _bind_fresh(gamma, instr.y, VarInfo(composed))
        return wc.with_gamma(gamma)

    if isinstance(instr, S.CopyDeref):
        vi = _take_active(wc, instr.x, "FrozenVariable")
        if not isinstance(vi.ty, S.Ptr):
            _err("TypeMismatch", "copy needs a pointer")
        if not is_copy(vi.ty.target):
            _err("NotCopyable", f"type {type_text(vi.ty.target)} is not copyable")
        _bind_fresh(gamma, instr.y, VarInfo(S.own(vi.ty.target)))
        return wc.with_gamma(gamma)

    if isinstance(instr, S.TypeWeaken):
        vi = _take_active(wc, instr.x, "FrozenVariable")
        _check_complete(instr.ty)
        if not isinstance(instr.ty, S.Ptr):
            _err("TypeMismatch", "weakening target must be a pointer type")
        if not subtype(lctx, vi.ty, instr.ty):
            _err("NotSubtype", f"{type_text(vi.ty)} is not a subtype of {type_text(instr.ty)}")
        gamma[instr.x] = VarInfo(instr.ty)
        return wc.with_gamma(gamma)

    if isinstance(instr, S.Call):
        g = prog.fn(instr.fn)
        if len(instr.lfts) != len(g.lft_params):
            _err("ArityMismatch", "wrong number of lifetime arguments")
        if len(instr.args) != len(g.params):
            _err("ArityMismatch", "wrong number of arguments")
        for l in instr.lfts:
            if l not in lctx.carrier:
                _err("UnknownLifetime", f"lifetime '{l} not introduced")
        inst = dict(zip(g.lft_params, instr.lfts))
        for lo, hi in g.lft_constraints:
            if not lctx.leq(inst[lo], inst[hi]):
                msg = f"required '{inst[lo]} <= '{inst[hi]} does not hold here"
                _err("ConstraintUnsatisfied", msg)
        for x, (px, pt) in zip(instr.args, g.params):
            vi = _take_active(wc, x, "FrozenVariable")
            want = S.subst_lifetimes(pt, inst)
            if S.canon(vi.ty) != S.canon(want):
                msg = f"argument {x!r}: expected {type_text(want)}, got {type_text(vi.ty)}"
                _err("TypeMismatch", msg)
            del gamma[x]
        ret = S.subst_lifetimes(g.ret, inst)
        _bind_fresh(gamma, instr.y, VarInfo(ret))
        return wc.with_gamma(gamma)

    if isinstance(instr, S.IntroLft):
        if instr.lft in lctx.carrier:
            _err("LifetimeRedefined", f"lifetime '{instr.lft} already live")
        return wc.with_lft(lctx.add(instr.lft, a_ex))

    if isinstance(instr, S.NowLft):
        if instr.lft in a_ex:
            _err("LifetimeParamNow", "cannot end a lifetime parameter")
        if instr.lft not in lctx.carrier:
            _err("UnknownLifetime", f"lifetime '{instr.lft} not introduced")
        thawed = {
            x: (VarInfo(vi.ty) if vi.frozen_at == instr.lft else vi)
            for x, vi in gamma.items()
        }
        return WholeCtx(thawed, lctx.remove(instr.lft))

    if isinstance(instr, S.LftLeq):
        for l in (instr.lo, instr.hi):
            if l in a_ex:
                _err("LifetimeParamConstraint", "cannot constrain lifetime parameters")
            if l not in lctx.carrier:
                _err("UnknownLifetime", f"lifetime '{l} not introduced")
        return wc.with_lft(lctx.relate(instr.lo, instr.hi))

    if isinstance(instr, S.ConstInstr):
        t = S.INT if isinstance(instr.value, int) else S.UNIT
        _bind_fresh(gamma, instr.y, VarInfo(S.own(t)))
        return wc.with_gamma(gamma)

    if isinstance(instr, S.BinOpInstr):
        for x in (instr.x, instr.x2):
            vi = _take_active(wc, x, "FrozenVariable")
            if not (isinstance(vi.ty, S.Ptr) and isinstance(S.whnf(vi.ty.target), S.IntT)):
                _err("TypeMismatch", f"operand {x!r} must point at int")
        _bind_fresh(gamma, instr.y, VarInfo(S.own(S.op_result_type(instr.op))))
        return wc.with_gamma(gamma)

    if isinstance(instr, S.RandInstr):
        _bind_fresh(gamma, instr.y, VarInfo(S.own(S.INT)))
        return wc.with_gamma(gamma)

    if isinstance(instr, S.InjInstr):
        _check_complete(instr.sum_type)
        vi = _take_active(wc, instr.x, "FrozenVariable")
        side = instr.sum_type.left if instr.index == 0 else instr.sum_type.right
        if not (isinstance(vi.ty, S.Ptr) and vi.ty.kind == S.OWN):
            _err("TypeMismatch", "inj consumes an owning pointer")
        if S.canon(vi.ty.target) != S.canon(side):
            msg = f"inj payload type mismatch: {type_text(vi.ty.target)} vs {type_text(side)}"
            _err("TypeMismatch", msg)
        del gamma[instr.x]
        _bind_fresh(gamma, instr.y, VarInfo(S.own(instr.sum_type)))
        return wc.with_gamma(gamma)

    if isinstance(instr, S.MakePair):
        v0 = _take_active(wc, instr.x0, "FrozenVariable")
        v1 = _take_active(wc, instr.x1, "FrozenVariable")
        for v in (v0, v1):
            if not (isinstance(v.ty, S.Ptr) and v.ty.kind == S.OWN):
                _err("TypeMismatch", "pair construction consumes owning pointers")
        del gamma[instr.x0]
        del gamma[instr.x1]
        _bind_fresh(gamma, instr.y, VarInfo(S.own(S.Prod(v0.ty.target, v1.ty.target))))
        return wc.with_gamma(gamma)

    if isinstance(instr, S.DestructPair):
        vi = _take_active(wc, instr.x, "FrozenVariable")
        if not (isinstance(vi.ty, S.Ptr) and isinstance(vi.ty.target, S.Prod)):
            _err("TypeMismatch", f"pair destruction needs a pointer to a product, got {type_text(vi.ty)}")
        prod = vi.ty.target
        del gamma[instr.x]
        _bind_fresh(gamma, instr.y0, VarInfo(S.Ptr(vi.ty.kind, vi.ty.lft, prod.left)))
        _bind_fresh(gamma, instr.y1, VarInfo(S.Ptr(vi.ty.kind, vi.ty.lft, prod.right)))
        return wc.with_gamma(gamma)

    raise TypeError(f"not an instruction: {instr!r}")


# ---------------------------------------------------------------------------
# Statement and program typing
# ---------------------------------------------------------------------------


def match_branch_contexts(stmt: S.StmtMatch, wc: WholeCtx) -> tuple[WholeCtx, WholeCtx]:
    vi = _take_active(wc, stmt.x, "FrozenVariable")
    if not (isinstance(vi.ty, S.Ptr) and isinstance(vi.ty.target, S.Sum)):
        _err("MatchOnNonSum", f"match needs a pointer to a sum type, got {type_text(vi.ty)}")
    sum_t = vi.ty.target
    out = []
    for binder, side in ((stmt.y0, sum_t.left), (stmt.y1, sum_t.right)):
        gamma = dict(wc.gamma)
        del gamma[stmt.x]
        _bind_fresh(gamma, binder, VarInfo(S.Ptr(vi.ty.kind, vi.ty.lft, side)))
        out.append(wc.with_gamma(gamma))
    return out[0], out[1]


def check_return(fn: S.FunctionDef, stmt: S.StmtReturn, wc: WholeCtx):
    vi = wc.gamma.get(stmt.x)
    if vi is None:
        _err("UnknownVariable", f"return of unknown variable {stmt.x!r}")
    if not vi.active:
        _err("FrozenVariable", f"cannot return frozen variable {stmt.x!r}")
    extra = set(wc.gamma) - {stmt.x}
    if extra:
        _err("ReturnLeftovers", f"variables still live at return: {sorted(extra)}")
    if S.canon(vi.ty) != S.canon(fn.ret):
        _err("TypeMismatch", f"return type mismatch: {type_text(vi.ty)} vs {type_text(fn.ret)}")
    if wc.lft.carrier != frozenset(fn.lft_params):
        local = sorted(wc.lft.carrier - frozenset(fn.lft_params))
        _err("ReturnLeftovers", f"local lifetimes still live at return: {local}")


@dataclass
class TypingResult:
    """Per-label whole contexts plus each function's lifetime parameters."""

    contexts: dict[tuple[str, str], WholeCtx]
    a_ex: dict[str, frozenset[str]]

    def ctx(self, fn: str, label: str) -> WholeCtx:
        return self.contexts[(fn, label)]

    def ty(self, fn: str, label: str, x: str) -> Type:
        return self.contexts[(fn, label)].gamma[x].ty


def entry_context(fn: S.FunctionDef) -> WholeCtx:
    gamma = {x: VarInfo(t) for x, t in fn.params}
    lctx = LftCtx.make(fn.lft_params, fn.lft_constraints)
    for x, t in fn.params:
        for l in sorted(S.lifetimes_of(t)):
            if l not in lctx.carrier:
                raise TypeCheckError(
                    "UnknownLifetime", f"parameter {x!r} mentions unbound lifetime '{l}",
                    fn.name, S.ENTRY,
                )
    for l in sorted(S.lifetimes_of(fn.ret)):
        if l not in lctx.carrier:
            raise TypeCheckError(
                "UnknownLifetime", "return type mentions unbound lifetime", fn.name, S.ENTRY
            )
    return WholeCtx(gamma, lctx)


def type_program(prog: S.Program) -> TypingResult:
    """Assign a whole context to every reachable label of every function,
    breadth-first in goto distance from entry.  An error raised while
    typing a label gets that function and label as its location here."""
    contexts: dict[tuple[str, str], WholeCtx] = {}
    a_ex = {fn.name: frozenset(fn.lft_params) for fn in prog}

    for fn in prog:
        f = fn.name
        contexts[(f, S.ENTRY)] = entry_context(fn)
        queue = [S.ENTRY]

        def register(target: str, ctx: WholeCtx):
            got = contexts.get((f, target))
            if got is None:
                contexts[(f, target)] = ctx
                queue.append(target)
            elif not got.same(ctx):
                _err("InconsistentJoin", f"two gotos reach {target!r} with different contexts")

        while queue:
            label = queue.pop(0)
            wc = contexts[(f, label)]
            stmt = fn.body[label]
            try:
                if isinstance(stmt, S.StmtReturn):
                    check_return(fn, stmt, wc)
                elif isinstance(stmt, S.StmtInstr):
                    register(stmt.goto, type_instruction(prog, fn, stmt.instr, wc))
                elif isinstance(stmt, S.StmtMatch):
                    c0, c1 = match_branch_contexts(stmt, wc)
                    register(stmt.l0, c0)
                    register(stmt.l1, c1)
            except TypeCheckError as e:
                raise TypeCheckError(e.code, e.msg, f, label) from None

    return TypingResult(contexts, a_ex)


def context_json(wc: WholeCtx) -> dict:
    """Stable JSON form of a whole context, for --dump-contexts goldens."""
    return {
        "vars": {
            x: {
                "activeness": "active" if vi.active else f"frozen '{vi.frozen_at}",
                "type": type_text(vi.ty),
            }
            for x, vi in sorted(wc.gamma.items())
        },
        "lifetimes": {
            "carrier": sorted(wc.lft.carrier),
            "order": sorted([a, b] for a, b in wc.lft.order),
        },
    }


def typing_json(prog: S.Program, typing: TypingResult) -> dict:
    out: dict = {}
    for fn in prog:
        out[fn.name] = {
            label: context_json(typing.ctx(fn.name, label)) for label in fn.body
        }
    return out
