"""Abstract operational semantics: the heap-free prophecy interpreter.

Frames map variables directly to pre-values; a mutable reference is a
pair (current value, abstract variable) where the abstract variable
stands for the value the reference will hold when the borrow ends.
Releasing the reference resolves its abstract variable by substituting
the final value throughout the whole configuration.

Lifetime bookkeeping is ghost state: each frame carries a map from its
local lifetime names to globally tagged lifetimes ("a@3" is the 'a
introduced by stack frame 3, counting from the bottom), and the
configuration carries the preorder over all tagged lifetimes.

The module also provides the safety checkers, for both semantics.
One give/take walk (`Walk`) pairs every abstract variable with exactly
one borrower (give) and one lender (take), and one stack walk
(`walk_stack`) drives it over every frame variable.  Without a heap it
is a configuration's summary.  With the heap of a concrete
configuration it is the extended readout: the heap must hold, at every
frame variable, the data of the abstract side's pre-value, with its
prophecy variables where data is borrowed away.  The extended summary
and the footprint gathered on the way must stay safe: every prophecy
is shared by one borrower and one lender at one address, and every
address is owned by one active access or by a frozen owner alongside
readers whose lifetimes end first.  The lifetime-safety judgment ties
the tags to the static contexts.  Each frame entry records its walk, so
the stack walk reuses each entry that a step left in place with its
paired heap entry and its read cells.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, field
from typing import Optional

from . import logic as L
from . import syntax as S
from . import values as V
from .machine import (  # the shared names stay reachable as aos.Final, aos.RunError, ...
    Final, Next, RunError, RunOutcome, StepResult, Stuck, StuckSignal, drive, entry_fn,
)
from .typeck import LftCtx, TypingResult, VarInfo, type_equiv, type_program

HOT = "hot"


def tagged(name: str, frame_idx: int) -> str:
    return f"{name}@{frame_idx}"


def tag_index(t: str) -> int:
    return int(t.rsplit("@", 1)[1])


class AbsSupply:
    """Fresh abstract variables, display-named after the borrowed
    variable."""

    def __init__(self):
        self.next_uid = 0
        self.used: dict[str, int] = {}

    def fresh(self, base: str) -> V.AbsVar:
        n = self.used.get(base, 0)
        self.used[base] = n + 1
        label = f"{base}◦" if n == 0 else f"{base}◦{n}"
        uid = self.next_uid
        self.next_uid += 1
        return V.AbsVar(uid, label)


@dataclass(frozen=True)
class AbsFrameEntry:
    fn: str
    label: str
    theta: dict[str, str] = field(hash=False)  # local lifetime -> tagged lifetime
    recv: Optional[str] = None
    frame: dict[str, V.PreValue] = field(hash=False, default_factory=dict)

    # the entry's last stack-walk record (`walk_stack`) and rendering
    # (`harness.resolutive_of`), cached in the instance __dict__ and, like
    # the facts `values` caches on a term, left out of equality, hashing,
    # repr, copies and pickles
    _walk = _rendered = None
    __getstate__ = V._Node.__getstate__


@dataclass(frozen=True)
class AbsConfig:
    stack: tuple[AbsFrameEntry, ...]  # index 0 is the top frame
    lft: LftCtx  # global context over tagged lifetimes

    @property
    def top(self) -> AbsFrameEntry:
        return self.stack[0]

    def subst(self, uid: int, value: V.PreValue) -> "AbsConfig":
        """Prophecy uid resolved to value; an entry it leaves unchanged is kept as itself."""
        mapping = {uid: value}
        new = []
        for e in self.stack:
            frame = {x: V.subst_absvars(v, mapping) for x, v in e.frame.items()}
            same = all(map(operator.is_, frame.values(), e.frame.values()))
            new.append(e if same else AbsFrameEntry(e.fn, e.label, e.theta, e.recv, frame))
        return AbsConfig(tuple(new), self.lft)

    def to_json(self) -> dict:
        return {
            "stack": [
                {
                    "fn": e.fn,
                    "label": e.label,
                    "theta": dict(sorted(e.theta.items())),
                    "recv": e.recv,
                    "frame": {x: V.to_json(v) for x, v in sorted(e.frame.items())},
                }
                for e in self.stack
            ],
            "lifetimes": {
                "carrier": sorted(self.lft.carrier),
                "order": sorted([a, b] for a, b in self.lft.order),
            },
        }


def val_of(v: V.PreValue) -> V.PreValue:
    """Current value behind a pointer pre-value."""
    if isinstance(v, V.Box):
        return v.inner
    if isinstance(v, V.MutPair):
        return v.cur
    raise StuckSignal(f"expected a pointer pre-value, got {V.show(v)}")


def step(
    prog: S.Program,
    typing: TypingResult,
    cfg: AbsConfig,
    rng: random.Random,
    supply: AbsSupply,
    rand_range: tuple[int, int] = (-128, 127),
) -> StepResult:
    try:
        return _step(prog, typing, cfg, rng, supply, rand_range)
    except StuckSignal as e:
        return Stuck(str(e))


def _step(prog, typing, cfg, rng, supply, rand_range) -> StepResult:
    top = cfg.top
    f, label = top.fn, top.label
    fn = prog.fn(f)
    stmt = fn.body[label]
    frame = dict(top.frame)
    theta = dict(top.theta)
    lctx = cfg.lft

    def ty(x: str) -> S.Ptr:
        return typing.ty(f, label, x)

    def need(x: str) -> V.PreValue:
        if x not in frame:
            raise StuckSignal(f"variable {x!r} missing from frame")
        return frame[x]

    def retop(new_label: str, new_theta=None, new_lctx=None) -> AbsConfig:
        entry = AbsFrameEntry(f, new_label, new_theta if new_theta is not None else theta,
                              top.recv, frame)
        return AbsConfig((entry,) + cfg.stack[1:], new_lctx if new_lctx is not None else lctx)

    if isinstance(stmt, S.StmtReturn):
        if len(cfg.stack) == 1:
            return Final()
        if len(frame) != 1:
            raise StuckSignal("return with extra variables in frame")
        (value,) = frame.values()
        caller = cfg.stack[1]
        cframe = dict(caller.frame)
        cframe[caller.recv] = value
        entry = AbsFrameEntry(caller.fn, caller.label, caller.theta, None, cframe)
        return Next(AbsConfig((entry,) + cfg.stack[2:], lctx))

    if isinstance(stmt, S.StmtMatch):
        t = ty(stmt.x)
        v = need(stmt.x)
        del frame[stmt.x]
        if t.kind in (S.OWN, S.IMMUT):
            if not (isinstance(v, V.Box) and isinstance(v.inner, V.Inj)):
                raise StuckSignal(f"match: bad scrutinee {V.show(v)}")
            i = v.inner.tag
            binder, target = (stmt.y0, stmt.l0) if i == 0 else (stmt.y1, stmt.l1)
            frame[binder] = V.Box(v.inner.payload)
            entry = AbsFrameEntry(f, target, theta, top.recv, frame)
            return Next(AbsConfig((entry,) + cfg.stack[1:], lctx))
        else:
            if not (isinstance(v, V.MutPair) and isinstance(v.cur, V.Inj)
                    and isinstance(v.fin, V.AbsVar)):
                raise StuckSignal(f"match: bad mut scrutinee {V.show(v)}")
            i = v.cur.tag
            fresh = supply.fresh(stmt.x)
            binder, target = (stmt.y0, stmt.l0) if i == 0 else (stmt.y1, stmt.l1)
            frame[binder] = V.MutPair(v.cur.payload, fresh)
            entry = AbsFrameEntry(f, target, theta, top.recv, frame)
            return Next(AbsConfig((entry,) + cfg.stack[1:], lctx).subst(v.fin.uid, V.Inj(i, fresh)))

    instr = stmt.instr
    goto = stmt.goto

    if isinstance(instr, S.MutBor):
        v = need(instr.x)
        fresh = supply.fresh(instr.x)
        if isinstance(v, V.Box):
            frame[instr.y] = V.MutPair(v.inner, fresh)
            frame[instr.x] = V.Box(fresh)
        elif isinstance(v, V.MutPair):
            frame[instr.y] = V.MutPair(v.cur, fresh)
            frame[instr.x] = V.MutPair(fresh, v.fin)
        else:
            raise StuckSignal(f"mutbor: bad pre-value {V.show(v)}")
        return Next(retop(goto))

    if isinstance(instr, S.Drop):
        t = ty(instr.x)
        v = need(instr.x)
        del frame[instr.x]
        if t.kind == S.MUT:
            if not (isinstance(v, V.MutPair) and isinstance(v.fin, V.AbsVar)):
                raise StuckSignal(f"drop: mut without prophecy {V.show(v)}")
            return Next(retop(goto).subst(v.fin.uid, v.cur))
        return Next(retop(goto))

    if isinstance(instr, S.Immut):
        v = need(instr.x)
        if not (isinstance(v, V.MutPair) and isinstance(v.fin, V.AbsVar)):
            raise StuckSignal(f"immut: bad pre-value {V.show(v)}")
        frame[instr.x] = V.Box(v.cur)
        return Next(retop(goto).subst(v.fin.uid, v.cur))

    if isinstance(instr, S.Swap):
        t = ty(instr.y)
        vx, vy = need(instr.x), need(instr.y)
        if not isinstance(vx, V.MutPair):
            raise StuckSignal("swap: first operand not a mut")
        if t.kind == S.OWN:
            if not isinstance(vy, V.Box):
                raise StuckSignal("swap: second operand not a box")
            frame[instr.x] = V.MutPair(vy.inner, vx.fin)
            frame[instr.y] = V.Box(vx.cur)
        else:
            if not isinstance(vy, V.MutPair):
                raise StuckSignal("swap: second operand not a mut")
            frame[instr.x] = V.MutPair(vy.cur, vx.fin)
            frame[instr.y] = V.MutPair(vx.cur, vy.fin)
        return Next(retop(goto))

    if isinstance(instr, S.MakePtr):
        v = need(instr.x)
        del frame[instr.x]
        frame[instr.y] = V.Box(v)
        return Next(retop(goto))

    if isinstance(instr, S.Deref):
        t = ty(instr.x)
        inner_t = t.target
        v = need(instr.x)
        del frame[instr.x]
        if t.kind == S.OWN:
            if not isinstance(v, V.Box):
                raise StuckSignal(f"deref: bad box pre-value {V.show(v)}")
            frame[instr.y] = v.inner
            return Next(retop(goto))
        if t.kind == S.IMMUT:
            frame[instr.y] = V.Box(val_of(v.inner))
            return Next(retop(goto))
        # t.kind == MUT; cases on the inner pointer kind
        if not (isinstance(v, V.MutPair) and isinstance(v.fin, V.AbsVar)):
            raise StuckSignal(f"deref: bad mut pre-value {V.show(v)}")
        if inner_t.kind == S.OWN:
            fresh = supply.fresh(instr.x)
            frame[instr.y] = V.MutPair(v.cur.inner, fresh)
            return Next(retop(goto).subst(v.fin.uid, V.Box(fresh)))
        if inner_t.kind == S.IMMUT:
            inner_val = v.cur.inner
            frame[instr.y] = V.Box(inner_val)
            return Next(retop(goto).subst(v.fin.uid, V.Box(inner_val)))
        # mut of mut
        fresh = supply.fresh(instr.x)
        inner = v.cur
        if not isinstance(inner, V.MutPair):
            raise StuckSignal("deref: expected inner mut pair")
        frame[instr.y] = V.MutPair(inner.cur, fresh)
        return Next(retop(goto).subst(v.fin.uid, V.MutPair(fresh, inner.fin)))

    if isinstance(instr, S.CopyDeref):
        v = need(instr.x)
        frame[instr.y] = V.Box(val_of(v))
        return Next(retop(goto))

    if isinstance(instr, S.TypeWeaken):
        return Next(retop(goto))

    if isinstance(instr, S.Call):
        g = prog.fn(instr.fn)
        new_theta = {gp: theta[ca] for gp, ca in zip(g.lft_params, instr.lfts)}
        callee_frame = {px: frame.pop(x) for x, (px, _) in zip(instr.args, g.params)}
        caller_entry = AbsFrameEntry(f, goto, theta, instr.y, frame)
        top_entry = AbsFrameEntry(instr.fn, S.ENTRY, new_theta, None, callee_frame)
        return Next(AbsConfig((top_entry, caller_entry) + cfg.stack[1:], lctx))

    if isinstance(instr, S.IntroLft):
        n = len(cfg.stack) - 1  # frames are tagged from the stack bottom = 0
        tag = tagged(instr.lft, n)
        below = frozenset(t for t in lctx.carrier if tag_index(t) < n)
        theta[instr.lft] = tag
        return Next(retop(goto, new_theta=theta, new_lctx=lctx.add(tag, below)))

    if isinstance(instr, S.NowLft):
        tag = theta.pop(instr.lft, None)
        if tag is None:
            raise StuckSignal(f"now: lifetime '{instr.lft} not in frame context")
        return Next(retop(goto, new_theta=theta, new_lctx=lctx.remove(tag)))

    if isinstance(instr, S.LftLeq):
        return Next(retop(goto, new_lctx=lctx.relate(theta[instr.lo], theta[instr.hi])))

    if isinstance(instr, S.ConstInstr):
        frame[instr.y] = V.Box(V.UNIT if instr.value == S.UNIT_CONST else instr.value)
        return Next(retop(goto))

    if isinstance(instr, S.BinOpInstr):
        a = val_of(need(instr.x))
        b = val_of(need(instr.x2))
        if not isinstance(a, int) or not isinstance(b, int):
            raise StuckSignal("binop: non-integer operands")
        frame[instr.y] = V.Box(L.apply_op(instr.op, a, b))
        return Next(retop(goto))

    if isinstance(instr, S.RandInstr):
        frame[instr.y] = V.Box(rng.randint(*rand_range))
        return Next(retop(goto))

    if isinstance(instr, S.InjInstr):
        v = need(instr.x)
        del frame[instr.x]
        frame[instr.y] = V.Box(V.Inj(instr.index, v.inner))
        return Next(retop(goto))

    if isinstance(instr, S.MakePair):
        v0, v1 = need(instr.x0), need(instr.x1)
        del frame[instr.x0]
        del frame[instr.x1]
        frame[instr.y] = V.Box(V.Pair(v0.inner, v1.inner))
        return Next(retop(goto))

    if isinstance(instr, S.DestructPair):
        t = ty(instr.x)
        v = need(instr.x)
        del frame[instr.x]
        if t.kind in (S.OWN, S.IMMUT):
            pair = v.inner
            if not isinstance(pair, V.Pair):
                raise StuckSignal("destruct: not a pair")
            frame[instr.y0] = V.Box(pair.fst)
            frame[instr.y1] = V.Box(pair.snd)
            return Next(retop(goto))
        if not (isinstance(v, V.MutPair) and isinstance(v.cur, V.Pair)
                and isinstance(v.fin, V.AbsVar)):
            raise StuckSignal("destruct: bad mut pair")
        f0 = supply.fresh(instr.x)
        f1 = supply.fresh(instr.x)
        frame[instr.y0] = V.MutPair(v.cur.fst, f0)
        frame[instr.y1] = V.MutPair(v.cur.snd, f1)
        return Next(retop(goto).subst(v.fin.uid, V.Pair(f0, f1)))

    raise StuckSignal(f"no rule for instruction {instr!r}")


# ---------------------------------------------------------------------------
# Whole-run driver
# ---------------------------------------------------------------------------


def initial_config(prog: S.Program, fname: str, inputs: list[V.Value]) -> AbsConfig:
    fn = entry_fn(prog, fname, inputs)
    frame: dict[str, V.PreValue] = {x: v for v, (x, _) in zip(inputs, fn.params)}
    return AbsConfig((AbsFrameEntry(fname, S.ENTRY, {}, None, frame),), LftCtx.empty())


def run(
    prog: S.Program,
    fname: str,
    inputs: list[V.Value],
    seed: int = 0,
    fuel: int = 100_000,
    typing: Optional[TypingResult] = None,
    rand_range: tuple[int, int] = (-128, 127),
    keep_trace: bool = True,
    check_safety: bool = False,
) -> RunOutcome:
    typing = typing or type_program(prog)
    supply = AbsSupply()
    rng = random.Random(seed)
    cfg = initial_config(prog, fname, inputs)

    def checked_step(cfg: AbsConfig) -> StepResult:
        if check_safety:
            ok, diags = safe_abstract(typing, cfg)
            if not ok:
                raise RunError("UnsafeConfig", "; ".join(diags))
        return step(prog, typing, cfg, rng, supply, rand_range)

    def finish(cfg: AbsConfig) -> tuple[V.Value, tuple[int, ...]]:
        (value,) = cfg.top.frame.values()
        if not V.is_value(value):
            raise RunError("AbstractResult", f"abstract variables leaked: {V.show(value)}")
        return value, ()

    return drive(checked_step, cfg, fuel, keep_trace, finish)


# ---------------------------------------------------------------------------
# Safety: the give/take and stack walks, summary, footprint and lifetime safety
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Give:
    lft: str  # tagged
    uid: int
    ty: S.Type  # canon, with tagged lifetimes
    addr: Optional[int] = None  # the heap address, in an extended summary


@dataclass(frozen=True)
class Take:
    lft: str
    uid: int
    ty: S.Type
    addr: Optional[int] = None


def _at(addr: Optional[int]) -> str:
    return "" if addr is None else f" at {addr}"


class Walk:
    """The give/take walk of frame variables' pre-values at their types:
    each prophecy pairs with its borrower (a give, at a hot mutable
    reference) and its frozen lender (a take).  A mode is HOT, or
    ("cold", lft) below an immutable reference of lifetime lft, where a
    mutable reference gives nothing.  Without a heap, the walk is the
    summary of a prophecy configuration.  With one, it is the extended
    readout of a heap configuration: each pre-value must be the data at
    its address (cells, sum tags, zero padding), items carry addresses,
    and each cell read is a footprint mark (hot, frozen tag, address)
    or (cold, lft, address).  `summary` and `footprint` count the items
    and marks in plain dicts (item -> number of times walked).  Faults
    are diagnostics; the walk stops after the first variable that has
    one."""

    def __init__(self, heap: Optional[dict[int, int]] = None, diags: Optional[list[str]] = None):
        self.heap = heap
        self.summary: dict = {}
        self.footprint: dict = {}
        self.diags: list[str] = [] if diags is None else diags

    def diag(self, msg: str) -> bool:
        self.diags.append(msg)
        return False

    def add(self, theta: dict[str, str], vi: VarInfo, v: V.PreValue, addr: Optional[int] = None) -> "Walk":
        """Walk v, a frame variable of static info vi (on a heap, pointing
        at addr), at vi's type with the frame's tagged lifetimes, frozen
        at the tag that theta must hold for vi's lifetime."""
        frz = theta.get(vi.frozen_at)  # None for an active variable
        if not self.diags and frz is None and vi.frozen_at is not None:
            self.diag(f"frozen lifetime '{vi.frozen_at} not in frame context")
        if not self.diags:
            self._ptr(HOT, frz, addr, S.subst_lifetimes(vi.ty, theta), v)
        return self

    def merge(self, summary: dict, footprint: dict) -> None:
        """Add another walk's counts (by dict.update where no key is shared)."""
        for total, part in ((self.summary, summary), (self.footprint, footprint)):
            if total.keys().isdisjoint(part):
                total.update(part)
            else:
                for k, n in part.items():
                    total[k] = total.get(k, 0) + n

    def _mark(self, mode, frz: Optional[str], addr: int) -> None:
        mark = (HOT, frz, addr) if mode == HOT else (*mode, addr)
        self.footprint[mark] = self.footprint.get(mark, 0) + 1

    def _ptr(self, mode, frz, addr, t: S.Ptr, v) -> bool:
        """The pointer pre-value v at pointer type t, pointing at addr."""
        if t.kind != S.MUT:
            if not isinstance(v, V.Box):
                return self.diag(f"expected box{_at(addr)}, abstract side has {V.show(v)}")
            if t.kind == S.IMMUT and mode == HOT:
                mode = ("cold", t.lft)
            return self._data(mode, frz, addr, t.target, v.inner)
        if not isinstance(v, V.MutPair):
            return self.diag(f"expected mut pair{_at(addr)}, abstract side has {V.show(v)}")
        # a cold mutable reference gives nothing: its final component is unobservable
        if mode == HOT and not isinstance(v.fin, V.AbsVar):
            return self.diag(f"hot mut{_at(addr)} without prophecy on the abstract side")
        ok = self._data(mode, frz, addr, t.target, v.cur)
        if ok and mode == HOT:
            give = Give(t.lft, v.fin.uid, S.canon(t.target), addr)
            self.summary[give] = self.summary.get(give, 0) + 1
        return ok

    def _data(self, mode, frz, addr, t: S.Type, v) -> bool:
        """The pre-value v at data type t, stored at addr.  A frozen
        position where v is a prophecy variable is borrowed away: a take."""
        if isinstance(v, V.AbsVar):
            if frz is None:
                return self.diag(f"abstract variable {V.show(v)} in an active position")
            take = Take(frz, v.uid, S.canon(t), addr)
            self.summary[take] = self.summary.get(take, 0) + 1
            return True
        t = S.whnf(t)
        heap = self.heap
        if isinstance(t, S.IntT):
            if not isinstance(v, int):
                return self.diag(f"int position{_at(addr)} vs {V.show(v)}")
            if heap is not None:
                if addr not in heap:
                    return self.diag(f"missing cell {addr}")
                if heap[addr] != v:
                    return self.diag(f"cell {addr} holds {heap[addr]}, abstract side has {V.show(v)}")
                self._mark(mode, frz, addr)
            return True
        if isinstance(t, S.UnitT):
            return isinstance(v, V.UnitVal) or self.diag(f"unit position{_at(addr)} vs {V.show(v)}")
        if isinstance(t, S.Ptr):
            if heap is not None:
                if addr not in heap:
                    return self.diag(f"missing pointer cell {addr}")
                self._mark(mode, frz, addr)
                addr = heap[addr]
            return self._ptr(mode, frz, addr, t, v)
        if isinstance(t, S.Sum):
            if not isinstance(v, V.Inj):
                return self.diag(f"sum position{_at(addr)} vs {V.show(v)}")
            side, pad = S.sum_side(t, v.tag)
            if heap is not None:
                tag = heap.get(addr)
                if tag is None:
                    return self.diag(f"missing tag cell {addr}")
                if tag not in (0, 1):
                    return self.diag(f"bad sum tag {tag} at {addr}")
                if tag != v.tag:
                    return self.diag(f"tag {tag} at {addr} vs abstract {V.show(v)}")
                self._mark(mode, frz, addr)
                for c in (addr + k for k in pad):
                    if heap.get(c) != 0:
                        return self.diag(f"bad padding cell {c}")
                    self._mark(mode, frz, c)
                addr += 1
            return self._data(mode, frz, addr, side, v.payload)
        if isinstance(t, S.Prod):
            if not isinstance(v, V.Pair):
                return self.diag(f"pair position{_at(addr)} vs {V.show(v)}")
            ok0 = self._data(mode, frz, addr, t.left, v.fst)
            snd = None if heap is None else addr + S.size_of(t.left)
            return self._data(mode, frz, snd, t.right, v.snd) and ok0
        return self.diag(f"cannot read type {S.type_text(t)}")


def walk_stack(typing: TypingResult, acfg: AbsConfig, cfg=None) -> Walk:
    """The give/take walk of every frame variable of acfg, in sorted
    order, at its static context (below the top, without the receiver,
    which is not populated until the callee returns).  With a heap
    configuration cfg, the extended readout: cfg must have acfg's stack
    depth and program points and its frames the context's variables,
    and the walk reads cfg.heap.  Every fault is a diagnostic on the
    returned walk; a stack-level one ends the walk.

    Each entry that passes records (`_walk`) its summary, footprint and
    the cells it read, keyed by the typing, its paired heap entry (None
    without a heap) and its top-or-not role.  Until a fault is found, an
    entry whose record has the walk's key, and whose recorded cells
    still hold their values, adds its recorded counts without a walk."""
    walk = Walk(None if cfg is None else cfg.heap)
    heap = walk.heap

    def fail(msg: str) -> Walk:
        walk.diags.append(msg)
        return walk

    if cfg is not None and len(acfg.stack) != len(cfg.stack):
        return fail(f"stack depth {len(cfg.stack)} vs abstract {len(acfg.stack)}")
    for i, a in enumerate(acfg.stack):
        c = None if cfg is None else cfg.stack[i]
        rec = a._walk
        if (rec is not None and not walk.diags and rec[0] is typing and rec[1] is c
                and rec[2] == (i > 0) and (heap is None or rec[5].items() <= heap.items())):
            walk.merge(rec[3], rec[4])
            continue
        if c is not None and (a.fn, a.label, a.recv) != (c.fn, c.label, c.recv):
            return fail(f"frame {i}: program point mismatch")
        gamma = dict(typing.ctx(a.fn, a.label).gamma)
        if i:
            gamma.pop(a.recv, None)
        if c is not None and set(c.frame) != set(gamma):
            return fail(f"frame {i}: variables {sorted(c.frame)} vs context {sorted(gamma)}")
        frame = Walk(heap, walk.diags)  # the walk stops after the first fault, across frames
        for x in itertools.takewhile(a.frame.__contains__, sorted(gamma)):
            frame.add(a.theta, gamma[x], a.frame[x], None if c is None else c.frame[x])
        walk.merge(frame.summary, frame.footprint)
        missing = sorted(set(gamma) - set(a.frame))
        if missing:
            return fail(f"frame {i}: variable {missing[0]} missing on the abstract side")
        extra = set(a.frame) - set(gamma)
        if extra:
            return fail(f"frame {i}: abstract side has variables {sorted(extra)} outside the context")
        if not walk.diags:
            cells = {m[2]: heap[m[2]] for m in frame.footprint}
            a.__dict__["_walk"] = (typing, c, i > 0, frame.summary, frame.footprint, cells)
    return walk


def safe_summary(lctx: LftCtx, summary: dict) -> list[str]:
    """Every abstract variable has one give and one take, at the same
    address, of equivalent types, the give's lifetime ending first."""
    by_uid: dict[int, list] = {}
    for item, n in summary.items():
        by_uid.setdefault(item.uid, []).extend([item] * n)
    diags = []
    for uid, items in sorted(by_uid.items()):
        gives = [i for i in items if isinstance(i, Give)]
        takes = [i for i in items if isinstance(i, Take)]
        if len(gives) != 1 or len(takes) != 1:
            diags.append(f"abs var {uid}: {len(gives)} gives, {len(takes)} takes")
            continue
        g, t = gives[0], takes[0]
        if g.addr != t.addr:
            diags.append(f"abs var {uid}: give at {g.addr}, take at {t.addr}")
        if not type_equiv(lctx, g.ty, t.ty):
            diags.append(f"abs var {uid}: give/take types differ")
        if not lctx.leq(g.lft, t.lft):
            diags.append(f"abs var {uid}: give lifetime {g.lft} not before take {t.lft}")
    return diags


def safe_footprint(lctx: LftCtx, footprint: dict) -> list[str]:
    """Every address is read by one hot access, or by a frozen hot owner
    alongside cold readers whose lifetimes end first."""
    diags = []
    reads: dict[int, int] = {}
    for mark, k in footprint.items():
        reads[mark[2]] = reads.get(mark[2], 0) + k
    by_addr: dict[int, list] = {}
    for mark, k in footprint.items():
        if mark[0] != HOT or reads[mark[2]] != 1:  # one hot access alone is safe
            by_addr.setdefault(mark[2], []).extend([mark] * k)
    for addr, marks in sorted(by_addr.items()):
        hots = [m for m in marks if m[0] == HOT]
        colds = [m for m in marks if m[0] == "cold"]
        if len(hots) == 1 and hots[0][1] is not None:
            if all(lctx.leq(c[1], hots[0][1]) for c in colds):
                continue
            diags.append(f"address {addr}: cold access outlives the frozen owner")
            continue
        diags.append(f"address {addr}: access marks {sorted(str(m) for m in marks)}")
    return diags


def lifetime_safe_frame(
    glob: LftCtx, theta: dict[str, str], local: LftCtx, a_ex: frozenset[str], idx: int
) -> list[str]:
    diags = []
    if set(theta) != set(local.carrier):
        diags.append(f"frame {idx}: theta domain differs from static lifetime context")
        return diags
    carrier = sorted(local.carrier)
    for a in carrier:
        tag = theta[a]
        if tag not in glob.carrier:
            diags.append(f"frame {idx}: tag {tag} not in global context")
            continue
        if a in a_ex:
            if tag_index(tag) >= idx:
                diags.append(f"frame {idx}: parameter '{a} maps to non-earlier tag {tag}")
        elif tag != tagged(a, idx):
            diags.append(f"frame {idx}: local '{a} maps to {tag}, expected {tagged(a, idx)}")
    for a in carrier:
        for b in carrier:
            if a in a_ex and b in a_ex:
                if local.leq(a, b) and not glob.leq(theta[a], theta[b]):
                    diags.append(f"frame {idx}: order of '{a} <= '{b} lost globally")
            else:
                if local.leq(a, b) != glob.leq(theta[a], theta[b]):
                    diags.append(f"frame {idx}: order of '{a},'{b} disagrees with global")
    return diags


def lifetime_safe(typing: TypingResult, cfg: AbsConfig) -> list[str]:
    diags = []
    n = len(cfg.stack)
    locals_total = 0
    for i, e in enumerate(cfg.stack):
        idx = n - 1 - i  # tags count from the stack bottom
        local = typing.ctx(e.fn, e.label).lft
        a_ex = typing.a_ex[e.fn]
        diags += lifetime_safe_frame(cfg.lft, e.theta, local, a_ex, idx)
        locals_total += len(local.carrier - a_ex)
    if len(cfg.lft.carrier) != locals_total:
        diags.append(
            f"global context has {len(cfg.lft.carrier)} lifetimes, frames account for {locals_total}"
        )
    return diags


def safe_abstract(typing: TypingResult, cfg: AbsConfig) -> tuple[bool, list[str]]:
    """Full safety check: the stack walk without a heap (the summary)
    and its pairing discipline, plus lifetime safety."""
    walk = walk_stack(typing, cfg)
    if walk.diags:
        return False, walk.diags
    diags = safe_summary(cfg.lft, walk.summary) + lifetime_safe(typing, cfg)
    return not diags, diags
