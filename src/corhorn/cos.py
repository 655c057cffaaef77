"""Concrete operational semantics: a heap-and-stack interpreter.

A configuration is a stack of frames (each mapping variables to
addresses, with the program point and, below the top, the variable that
will receive the callee's result) together with an integer heap.  Steps
follow one rule per statement form; allocation uses a monotone bump
cursor so freed addresses are never reused and traces are deterministic
for a fixed seed.

This module owns the heap layout (`syntax.size_of` gives the sizes):
an int or a pointer takes one cell, unit none; a sum is a tag cell
(0 or 1), then the payload of that side at +1, then zero padding up to
the size of the larger side (`syntax.sum_side`); a product is its two
components concatenated.

The readout judgments reconstruct typed values from the heap together
with the multiset of addresses touched (the memory footprint); a
duplicate address in a frame's combined footprint is an ownership
violation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from . import syntax as S
from . import values as V
from .machine import (  # the shared names stay reachable as cos.Final, cos.RunError, ...
    Final, Next, RunError, RunOutcome, StepResult, Stuck, StuckSignal, drive, entry_fn,
)
from .typeck import TypingResult, type_program


class ReadoutError(RunError):
    """A heap that does not read out at its type."""


class Alloc:
    """Fresh-address supply.  Never reuses an address, so address
    comparisons in goldens are stable."""

    def __init__(self, start: int = 100):
        self.cursor = start

    def fresh(self, ncells: int) -> int:
        base = self.cursor
        self.cursor += max(ncells, 1)
        return base


@dataclass(frozen=True)
class FrameEntry:
    fn: str
    label: str
    recv: Optional[str]  # receiver variable; None for the top frame
    frame: dict[str, int] = field(hash=False)


@dataclass(frozen=True)
class CosConfig:
    stack: tuple[FrameEntry, ...]  # index 0 is the top frame
    heap: dict[int, int] = field(hash=False)

    @property
    def top(self) -> FrameEntry:
        return self.stack[0]

    def to_json(self) -> dict:
        return {
            "stack": [
                {"fn": e.fn, "label": e.label, "recv": e.recv, "frame": dict(sorted(e.frame.items()))}
                for e in self.stack
            ],
            "heap": [[a, v] for a, v in sorted(self.heap.items())],
        }


# ---------------------------------------------------------------------------
# Readout, and the write of an input
# ---------------------------------------------------------------------------


def readout(heap: dict[int, int], addr: int, t: S.Type) -> tuple[V.Value, list[int]]:
    """Read the data of type t at addr; returns the value and the
    footprint (multiset of addresses, as a list)."""
    t = S.whnf(t)
    if isinstance(t, S.IntT):
        if addr not in heap:
            raise ReadoutError("MissingCell", f"no cell at {addr}")
        return heap[addr], [addr]
    if isinstance(t, S.UnitT):
        return V.UNIT, []
    if isinstance(t, S.Ptr):
        if t.kind != S.OWN:
            raise ReadoutError("ReferenceInReadout", "cannot read references at a simple boundary")
        if addr not in heap:
            raise ReadoutError("MissingCell", f"no cell at {addr}")
        inner, m = readout(heap, heap[addr], t.target)
        return V.Box(inner), m + [addr]
    if isinstance(t, S.Sum):
        if addr not in heap:
            raise ReadoutError("MissingCell", f"no cell at {addr}")
        tag = heap[addr]
        if tag not in (0, 1):
            raise ReadoutError("BadTag", f"sum tag at {addr} is {tag}")
        side, pad = S.sum_side(t, tag)
        pad_cells = [addr + k for k in pad]
        for c in pad_cells:
            if c not in heap:
                raise ReadoutError("MissingCell", f"no padding cell at {c}")
            if heap[c] != 0:
                raise ReadoutError("NonzeroPadding", f"padding cell {c} holds {heap[c]}")
        payload, m = readout(heap, addr + 1, side)
        return V.Inj(tag, payload), [addr] + pad_cells + m
    if isinstance(t, S.Prod):
        v0, m0 = readout(heap, addr, t.left)
        v1, m1 = readout(heap, addr + S.size_of(t.left), t.right)
        return V.Pair(v0, v1), m0 + m1
    raise ReadoutError("IncompleteType", f"cannot read out at type {S.type_text(t)}")


def _fill(heap: dict[int, int], base: int, t: S.Type, v: V.Value, alloc: Alloc) -> None:
    t = S.whnf(t)
    if isinstance(t, S.IntT):
        heap[base] = v
    elif isinstance(t, S.UnitT):
        pass
    elif isinstance(t, S.Ptr):
        if t.kind != S.OWN:
            raise RunError("SortMismatch", "cannot write references at a simple boundary")
        # machine.entry_fn sort-checked the pointee with the whole input
        target = alloc.fresh(S.size_of(t.target))
        _fill(heap, target, t.target, v.inner, alloc)
        heap[base] = target
    elif isinstance(t, S.Sum):
        side, pad = S.sum_side(t, v.tag)
        heap[base] = v.tag
        _fill(heap, base + 1, side, v.payload, alloc)
        for k in pad:
            heap[base + k] = 0
    elif isinstance(t, S.Prod):
        _fill(heap, base, t.left, v.fst, alloc)
        _fill(heap, base + S.size_of(t.left), t.right, v.snd, alloc)
    else:
        raise RunError("SortMismatch", f"cannot write at type {S.type_text(t)}")


def safe_readout_frame(
    heap: dict[int, int], frame: dict[str, int], gamma: dict
) -> tuple[dict[str, V.Value], list[int]]:
    """Read every (owning) variable of a frame and insist the combined
    footprint has no duplicate address; returns the values and that
    footprint."""
    if set(frame) != set(gamma):
        raise ReadoutError("FrameMismatch", "frame and context domains differ")
    out: dict[str, V.Value] = {}
    combined: list[int] = []
    for x in sorted(frame):
        vi = gamma[x]
        if not vi.active or not (isinstance(vi.ty, S.Ptr) and vi.ty.kind == S.OWN):
            raise ReadoutError("NotOwnBoundary", f"variable {x!r} is not an active owner")
        v, m = readout(heap, frame[x], vi.ty.target)
        out[x] = V.Box(v)
        combined.extend(m)
    seen: set[int] = set()
    for a in combined:
        if a in seen:
            raise ReadoutError("DuplicateFootprint", f"address {a} owned twice")
        seen.add(a)
    return out, combined


def read_result(typing: TypingResult, cfg: CosConfig) -> tuple[V.Value, tuple[int, ...]]:
    """The value a final configuration returns, read out of the heap
    (`safe_readout_frame` of its one frame), and the cells it leaked:
    every address outside the read footprint, in order."""
    top = cfg.top
    values, m = safe_readout_frame(cfg.heap, top.frame, typing.ctx(top.fn, top.label).gamma)
    (value,) = values.values()
    return value, tuple(sorted(set(cfg.heap) - set(m)))


# ---------------------------------------------------------------------------
# Small-step transition
# ---------------------------------------------------------------------------


def _block(heap: dict[int, int], base: int, n: int, reason: str) -> list[int]:
    vals = []
    for k in range(n):
        if base + k not in heap:
            raise StuckSignal(f"{reason}: missing cell {base + k}")
        vals.append(heap[base + k])
    return vals


def _take(heap: dict[int, int], base: int, n: int, reason: str) -> list[int]:
    """Read the block of n cells at base, as `_block` does, and free it."""
    vals = _block(heap, base, n, reason)
    for k in range(n):
        del heap[base + k]
    return vals


def _put(heap: dict[int, int], base: int, vals: list[int]) -> None:
    for k, v in enumerate(vals):
        heap[base + k] = v


def step(
    prog: S.Program,
    typing: TypingResult,
    cfg: CosConfig,
    rng: random.Random,
    alloc: Alloc,
    rand_range: tuple[int, int] = (-128, 127),
) -> StepResult:
    try:
        return _step(prog, typing, cfg, rng, alloc, rand_range)
    except StuckSignal as e:
        return Stuck(str(e))


def _step(prog, typing, cfg, rng, alloc, rand_range) -> StepResult:
    top = cfg.top
    f, label = top.fn, top.label
    fn = prog.fn(f)
    stmt = fn.body[label]
    heap = dict(cfg.heap)
    frame = dict(top.frame)

    def ty(x: str) -> S.Type:
        return typing.ty(f, label, x)

    def retop(new_label: str) -> CosConfig:
        entry = FrameEntry(f, new_label, top.recv, frame)
        return CosConfig((entry,) + cfg.stack[1:], heap)

    if isinstance(stmt, S.StmtReturn):
        if len(cfg.stack) == 1:
            return Final()
        if len(frame) != 1:
            raise StuckSignal("return with extra variables in frame")
        (addr,) = frame.values()
        caller = cfg.stack[1]
        cframe = dict(caller.frame)
        cframe[caller.recv] = addr
        entry = FrameEntry(caller.fn, caller.label, None, cframe)
        return Next(CosConfig((entry,) + cfg.stack[2:], heap))

    if isinstance(stmt, S.StmtMatch):
        t = ty(stmt.x)
        a = frame.pop(stmt.x)
        if a not in heap:
            raise StuckSignal(f"match: missing tag cell {a}")
        i = heap[a]
        if i not in (0, 1):
            raise StuckSignal(f"match: bad tag {i}")
        if t.kind == S.OWN:  # the tag and padding cells are freed; the payload stays
            _, pad = S.sum_side(S.whnf(t.target), i)
            del heap[a]
            for k in pad:
                if a + k not in heap:
                    raise StuckSignal(f"match: missing padding cell {a + k}")
                del heap[a + k]
        binder, target = (stmt.y0, stmt.l0) if i == 0 else (stmt.y1, stmt.l1)
        frame[binder] = a + 1
        return Next(retop(target))

    instr = stmt.instr
    goto = stmt.goto

    if isinstance(instr, S.MutBor):
        frame[instr.y] = frame[instr.x]
        return Next(retop(goto))

    if isinstance(instr, S.Drop):
        t = ty(instr.x)
        a = frame.pop(instr.x)
        if t.kind == S.OWN:
            _take(heap, a, S.size_of(t.target), "drop")
        return Next(retop(goto))

    if isinstance(instr, (S.Immut, S.TypeWeaken, S.IntroLft, S.NowLft, S.LftLeq)):
        return Next(retop(goto))

    if isinstance(instr, S.Swap):
        t = ty(instr.x)
        n = S.size_of(t.target)
        a, b = frame[instr.x], frame[instr.y]
        ma = _block(heap, a, n, "swap")
        mb = _block(heap, b, n, "swap")
        _put(heap, a, mb)
        _put(heap, b, ma)
        return Next(retop(goto))

    if isinstance(instr, S.MakePtr):
        a_inner = frame.pop(instr.x)
        a = alloc.fresh(1)
        heap[a] = a_inner
        frame[instr.y] = a
        return Next(retop(goto))

    if isinstance(instr, S.Deref):
        t = ty(instr.x)
        a = frame.pop(instr.x)
        if a not in heap:
            raise StuckSignal(f"deref: missing cell {a}")
        a2 = heap[a]
        if t.kind == S.OWN:
            del heap[a]  # the consumed box's own cell is freed here
        frame[instr.y] = a2
        return Next(retop(goto))

    if isinstance(instr, S.CopyDeref):
        t = ty(instr.x)
        n = S.size_of(t.target)
        src = frame[instr.x]
        vals = _block(heap, src, n, "copy")
        b = alloc.fresh(n)
        _put(heap, b, vals)
        frame[instr.y] = b
        return Next(retop(goto))

    if isinstance(instr, S.Call):
        g = prog.fn(instr.fn)
        callee = {px: frame.pop(x) for x, (px, _) in zip(instr.args, g.params)}
        caller_entry = FrameEntry(f, goto, instr.y, frame)
        top_entry = FrameEntry(instr.fn, S.ENTRY, None, callee)
        return Next(CosConfig((top_entry, caller_entry) + cfg.stack[1:], heap))

    if isinstance(instr, S.ConstInstr):
        if isinstance(instr.value, int):
            a = alloc.fresh(1)
            heap[a] = instr.value
        else:
            a = alloc.fresh(0)
        frame[instr.y] = a
        return Next(retop(goto))

    if isinstance(instr, S.BinOpInstr):
        a, a2 = frame[instr.x], frame[instr.x2]
        if a not in heap or a2 not in heap:
            raise StuckSignal("binop: missing operand cell")
        res = S.eval_op(instr.op, heap[a], heap[a2])
        b = alloc.fresh(1)
        heap[b] = int(res)  # booleans encoded 1/0
        frame[instr.y] = b
        return Next(retop(goto))

    if isinstance(instr, S.RandInstr):
        n = rng.randint(*rand_range)
        a = alloc.fresh(1)
        heap[a] = n
        frame[instr.y] = a
        return Next(retop(goto))

    if isinstance(instr, S.InjInstr):
        side, pad = S.sum_side(instr.sum_type, instr.index)
        vals = _take(heap, frame.pop(instr.x), S.size_of(side), "inj")
        b = alloc.fresh(S.size_of(instr.sum_type))
        _put(heap, b, [instr.index] + vals + [0] * len(pad))
        frame[instr.y] = b
        return Next(retop(goto))

    if isinstance(instr, S.MakePair):
        v0 = _take(heap, frame.pop(instr.x0), S.size_of(ty(instr.x0).target), "pair")
        v1 = _take(heap, frame.pop(instr.x1), S.size_of(ty(instr.x1).target), "pair")
        b = alloc.fresh(len(v0) + len(v1))
        _put(heap, b, v0 + v1)
        frame[instr.y] = b
        return Next(retop(goto))

    if isinstance(instr, S.DestructPair):
        t = ty(instr.x)
        prod = S.whnf(t.target)
        a = frame.pop(instr.x)
        frame[instr.y0] = a
        frame[instr.y1] = a + S.size_of(prod.left)
        return Next(retop(goto))

    raise StuckSignal(f"no rule for instruction {instr!r}")


# ---------------------------------------------------------------------------
# Whole-run driver
# ---------------------------------------------------------------------------


def initial_config(prog: S.Program, fname: str, inputs: list[V.Value], alloc: Alloc) -> CosConfig:
    fn = entry_fn(prog, fname, inputs)  # checks each input's sort
    heap: dict[int, int] = {}
    frame: dict[str, int] = {}
    for v, (x, t) in zip(inputs, fn.params):
        frame[x] = alloc.fresh(S.size_of(t.target))
        _fill(heap, frame[x], t.target, v.inner, alloc)
    return CosConfig((FrameEntry(fname, S.ENTRY, None, frame),), heap)


def run(
    prog: S.Program,
    fname: str,
    inputs: list[V.Value],
    seed: int = 0,
    fuel: int = 100_000,
    typing: Optional[TypingResult] = None,
    rand_range: tuple[int, int] = (-128, 127),
    keep_trace: bool = True,
) -> RunOutcome:
    """Execute a simple function on given boxed inputs and read the
    result back out of the final heap."""
    typing = typing or type_program(prog)
    alloc = Alloc()
    rng = random.Random(seed)
    cfg = initial_config(prog, fname, inputs, alloc)

    return drive(lambda c: step(prog, typing, c, rng, alloc, rand_range),
                 cfg, fuel, keep_trace, lambda c: read_result(typing, c))
