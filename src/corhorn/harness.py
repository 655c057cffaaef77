"""Executable metatheory: lockstep checks between the heap interpreter,
the prophecy interpreter and the resolution engine, plus the end-to-end
differential oracle.

The heap-vs-prophecy link checks each concrete configuration against
the prophecy configuration reached by the same steps: `aos.walk_stack`
over the heap (the extended readout), the safety of the summary and
footprint it gathers, and the abstract side's lifetime safety.  Each
step walks again only the frames it changed: an entry it kept, paired
with the same heap entry, keeps its walk (`aos.walk_stack`).

The prophecy-vs-resolution link renders each abstract configuration as
a stack of predicate applications (a resolutive configuration) and
checks that each interpreter step is matched by one resolution step
using exactly the clause generated from the executed statement, taken
from `translate.clauses_for_label` once per label per typing: the
typing records each label's clauses with the program
(`translate.label_clauses`), so later checks reuse the clause objects
and the facts SLDC cached on them.  Each step renders again only the
frames it changed: an entry it kept at the same index keeps its atom,
and a frame rendered again reuses the term each compound pre-value
keeps for its sort.  A resolution step keeps the
target's terms where it binds a clause variable to them, so most of a
candidate's arguments, and many of its atoms, are the target's own
objects; `logic.match_into` matches such an argument by identity,
binding its variables to themselves without walking it.  The rendering
and the oracle's query build their label atoms with
`translate.label_atom`, so the argument order is decided there alone.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import aos
from . import cos
from . import logic as L
from . import sldc
from . import syntax as S
from . import translate as T
from . import values as V
from .machine import Final, Stuck
from .typeck import TypingResult, type_program


def safe_link(
    typing: TypingResult,
    cfg: cos.CosConfig,
    acfg: aos.AbsConfig,
) -> tuple[bool, list[str]]:
    """Does the concrete configuration read out safely as the abstract
    one?  Walks acfg's stack over cfg's heap (`aos.walk_stack`) and
    checks the summary and footprint it gathers.  A passing walk has
    visited every abstract pre-value at its type, and its summary is the
    abstract one (the walk that `aos.safe_abstract` runs without a heap)
    with addresses added, so only the abstract side's lifetime safety
    (`aos.lifetime_safe`) is left to check.  The walk reuses the record
    of each entry that a previous walk paired with the same heap entry."""
    walk = aos.walk_stack(typing, acfg, cfg)
    if walk.diags:
        return False, walk.diags
    diags = aos.safe_summary(acfg.lft, walk.summary) + aos.safe_footprint(acfg.lft, walk.footprint)
    return not diags, diags


# ---------------------------------------------------------------------------
# Lockstep runs
# ---------------------------------------------------------------------------


@dataclass
class LinkStep:
    index: int
    point: str
    linked: bool
    diagnostics: list[str] = field(default_factory=list)


@dataclass
class LinkReport:
    FUEL_OUT = "fuel exhausted with all steps linked"  # the detail of a run cut by its fuel

    ok: bool
    steps: list[LinkStep]
    detail: str = ""
    final_value: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "detail": self.detail,
            "final_value": self.final_value,
            "steps": [
                {"index": s.index, "point": s.point, "linked": s.linked, "diagnostics": s.diagnostics}
                for s in self.steps
                if not s.linked
            ],
            "total_steps": len(self.steps),
        }


def lockstep_cos_aos(
    prog: S.Program,
    fname: str,
    inputs: list[V.Value],
    seed: int = 0,
    fuel: int = 100_000,
    typing: Optional[TypingResult] = None,
    rand_range: tuple[int, int] = (-128, 127),
) -> LinkReport:
    """Run both interpreters with one seed, checking the safe-link
    relation after every paired step and equality of final values."""
    typing = typing or type_program(prog)
    alloc = cos.Alloc()
    supply = aos.AbsSupply()
    rng_c = random.Random(seed)
    rng_a = random.Random(seed)
    c = cos.initial_config(prog, fname, inputs, alloc)
    a = aos.initial_config(prog, fname, inputs)
    steps: list[LinkStep] = []
    for i in range(fuel + 1):
        point = f"{c.top.fn}:{c.top.label}"
        _, diags = safe_link(typing, c, a)
        diags += aos.lifetime_safe(typing, a)
        steps.append(LinkStep(i, point, not diags, diags))
        if diags:
            return LinkReport(False, steps, f"link failed at step {i} ({point})")
        rc = cos.step(prog, typing, c, rng_c, alloc, rand_range)
        ra = aos.step(prog, typing, a, rng_a, supply, rand_range)
        if isinstance(rc, Final) or isinstance(ra, Final):
            if type(rc) is not type(ra):
                return LinkReport(False, steps, f"one side finished early at step {i}")
            cv, _ = cos.read_result(typing, c)
            (av,) = a.top.frame.values()
            if cv != av:
                return LinkReport(False, steps, f"final values differ: {V.show(cv)} vs {V.show(av)}")
            return LinkReport(True, steps, final_value=V.show(cv))
        if isinstance(rc, Stuck) or isinstance(ra, Stuck):
            reason = (rc if isinstance(rc, Stuck) else ra).reason
            return LinkReport(False, steps, f"stuck at step {i}: {reason}")
        c, a = rc.config, ra.config
    return LinkReport(True, steps, LinkReport.FUEL_OUT)


# -- prophecy interpreter vs resolution -------------------------------------


def resolutive_of(prog: S.Program, typing: TypingResult, acfg: aos.AbsConfig) -> sldc.ResConfig:
    """Render an abstract configuration as a resolutive configuration:
    one atom per frame, prophecy variables as logic variables, fresh
    result variables threading each receiver.  Each entry records its
    atom and sorts (`_rendered`), keyed by the typing and its index from
    the top, on which its r#i names depend; an entry whose record has
    that key is not rendered again.  Each compound pre-value records its
    term and the sorts of its prophecy variables at the sort it was
    rendered at (`_term`); one with no prophecy variable is its own term."""

    def term_of(v: V.PreValue, sort: L.Sort, sorts: dict) -> V.Term:
        """v with each prophecy variable as a logic variable, whose sort
        is recorded in sorts."""
        if type(v) is V.AbsVar:
            sorts[f"a#{v.uid}"] = S.whnf(sort)
            return V.Var(f"a#{v.uid}")
        if V.is_pattern(v):
            return v
        rec = v._term
        if rec is None or rec[0] is not sort:
            mine: dict[str, L.Sort] = {}
            s = S.whnf(sort)
            if isinstance(v, V.Box):
                t = V.Box(term_of(v.inner, s.inner, mine))
            elif isinstance(v, V.MutPair):
                t = V.MutPair(term_of(v.cur, s.inner, mine), term_of(v.fin, s.inner, mine))
            elif isinstance(v, V.Inj):
                t = V.Inj(v.tag, term_of(v.payload, s.left if v.tag == 0 else s.right, mine))
            else:
                t = V.Pair(term_of(v.fst, s.left, mine), term_of(v.snd, s.right, mine))
            rec = v.__dict__["_term"] = (sort, t, tuple(mine.items()))
        sorts.update(rec[2])
        return rec[1]

    atoms = []
    sorts: dict[str, L.Sort] = {}
    for i, entry in enumerate(acfg.stack):
        rec = entry._rendered
        if rec is None or rec[0] is not typing or rec[1] != i:
            gamma = typing.ctx(entry.fn, entry.label).gamma
            frame_sorts: dict[str, L.Sort] = {}
            args: dict[str, V.Term] = {}
            for x, info in sorted(gamma.items()):
                args[x] = (V.Var(f"r#{i - 1}") if i > 0 and x == entry.recv
                           else term_of(entry.frame[x], T.sort_of_type(info.ty), frame_sorts))
            frame_sorts[f"r#{i}"] = T.sort_of_type(prog.fn(entry.fn).ret)
            args[T.RES] = V.Var(f"r#{i}")
            atom = T.label_atom(typing, entry.fn, entry.label, args)
            rec = entry.__dict__["_rendered"] = (typing, i, atom, frame_sorts)
        atoms.append(rec[2])
        sorts.update(rec[3])
    n = len(acfg.stack) - 1
    return sldc.ResConfig(tuple(atoms), V.Var(f"r#{n}"), sorts)


def _config_refines(cand: sldc.ResConfig, target: sldc.ResConfig) -> bool:
    if len(cand.stack) != len(target.stack):
        return False
    m: dict[str, V.Term] = {}
    for ca, ta in zip(cand.stack, target.stack):
        if ca.pred != ta.pred or len(ca.args) != len(ta.args):
            return False
        if not all(L.match_into(x, y, m) for x, y in zip(ca.args, ta.args)):
            return False
    return L.match_into(cand.result, target.result, m)


def lockstep_aos_sldc(
    prog: S.Program,
    fname: str,
    inputs: list[V.Value],
    seed: int = 0,
    fuel: int = 100_000,
    typing: Optional[TypingResult] = None,
    rand_range: tuple[int, int] = (-128, 127),
) -> LinkReport:
    """Check that every prophecy-interpreter step corresponds to one
    resolution step using the clause generated from the executed
    statement (`translate.clauses_for_label`, once per label per typing
    and program, as `translate.label_clauses` records them; of a match,
    the arm taken), ending in an empty-stack configuration whose result
    refines to the returned value.  Translates nothing else."""
    typing = typing or type_program(prog)
    spec = L.SampleSpec(int_lo=rand_range[0], int_hi=rand_range[1])
    supply = aos.AbsSupply()
    rng = random.Random(seed)
    renamer = sldc.Renamer()
    a = aos.initial_config(prog, fname, inputs)
    k = resolutive_of(prog, typing, a)
    steps: list[LinkStep] = []
    for i in range(fuel + 1):
        top = a.top
        point = f"{top.fn}:{top.label}"
        stmt = prog.fn(top.fn).body[top.label]
        clauses = T.label_clauses(prog, typing, top.fn, top.label)
        ra = aos.step(prog, typing, a, rng, supply, rand_range)
        if isinstance(ra, Final):
            cands = sldc.step(k, clauses, renamer, spec)
            (value,) = a.top.frame.values()
            done = [c for c in cands if c.done and L.refines_to(c.result, value)]
            ok = bool(done)
            steps.append(LinkStep(i, point, ok, [] if ok else ["no final resolution matches"]))
            return LinkReport(ok, steps,
                              "" if ok else f"final step diverged at {point}",
                              final_value=V.show(value))
        if isinstance(ra, Stuck):
            return LinkReport(False, steps, f"interpreter stuck at step {i}: {ra.reason}")
        a2 = ra.config
        if isinstance(stmt, S.StmtMatch):
            clauses = [clauses[0 if a2.top.label == stmt.l0 else 1]]
        cands = sldc.step(k, clauses, renamer, spec)
        target = resolutive_of(prog, typing, a2)
        ok = any(_config_refines(c, target) for c in cands if not c.done)
        steps.append(
            LinkStep(i, point, ok, [] if ok else [f"{len(cands)} candidates, none refines to the target"])
        )
        if not ok:
            return LinkReport(False, steps, f"diverged at step {i} ({point})")
        a, k = a2, target
    return LinkReport(True, steps, LinkReport.FUEL_OUT)


# ---------------------------------------------------------------------------
# Differential oracle
# ---------------------------------------------------------------------------


@dataclass
class OracleReport:
    checked: int
    returned: int
    misses: list[dict]
    budget_flags: int = 0
    # misses whose enumeration was cut short by its budget; kept out of
    # to_json, they only decide whether the misses refute anything
    flagged_misses: int = 0
    # heap runs that returned no value, by how they ended; also kept out
    # of to_json.  A stuck run is a fault of the heap semantics.
    stuck: int = 0
    out_of_fuel: int = 0
    # the enumerations' resolution steps, dedup hits and merged integer
    # branches (`EnumOutcome`), also kept out of to_json
    sldc_steps: int = 0
    dedup_hits: int = 0
    merged: int = 0

    @property
    def ok(self) -> bool:
        return not self.misses

    @property
    def refuted(self) -> bool:
        """Some miss comes from an enumeration that finished within budget."""
        return len(self.misses) > self.flagged_misses

    def to_json(self) -> dict:
        return {
            "checked": self.checked,
            "returned": self.returned,
            "misses": self.misses,
            "budget_flags": self.budget_flags,
            "ok": self.ok,
        }


def oracle_diff(
    prog: S.Program,
    fname: str,
    input_tuples: Iterable[tuple[V.Value, ...]],
    seeds: Iterable[int] = (0, 1, 2, 3, 4),
    depth: int = 64,
    fuel: int = 20_000,
    typing: Optional[TypingResult] = None,
    rand_range: tuple[int, int] = (-8, 8),
) -> OracleReport:
    """For every sampled input tuple and seed: if the heap interpreter
    returns a value, some resolution result pattern must refine to it.
    Enumeration runs to `depth` with the default width of 4000.  A heap
    run that stutters is out of fuel at once (`machine.drive`); like a
    stuck run, it adds no value, and the report counts both.  The system
    is the one recorded on typing (`translate.translate_program`), so
    checks of one program under one typing translate it once."""
    typing = typing or type_program(prog)
    spec = L.SampleSpec(int_lo=rand_range[0], int_hi=rand_range[1])
    sys = T.translate_program(prog, typing)
    params = [x for x, _ in prog.fn(fname).params]
    seeds = list(seeds)
    checked = returned = flags = flagged_misses = sldc_steps = dedup_hits = merged = 0
    misses: list[dict] = []
    ends: Counter = Counter()
    for tup in input_tuples:
        checked += 1
        values = set()
        for seed in seeds:
            out = cos.run(prog, fname, list(tup), seed=seed, fuel=fuel,
                          typing=typing, rand_range=rand_range, keep_trace=False)
            if out.status == "returned":
                values.add(out.value)
            else:
                ends[out.status] += 1
        if not values:
            continue
        returned += 1
        query = T.label_atom(typing, fname, S.ENTRY, dict(zip(params, tup)))
        enum = sldc.enumerate_results(sys, query.pred, query.args[:-1], depth=depth, spec=spec)
        sldc_steps += enum.steps
        dedup_hits += enum.dedup_hits
        merged += enum.merged
        if enum.budget_exceeded:
            flags += 1
        for w in values:
            if not sldc.covers_value(enum, w):
                flagged_misses += int(enum.budget_exceeded)
                misses.append(
                    {
                        "inputs": [V.show(v) for v in tup],
                        "value": V.show(w),
                        "patterns": [V.show(p) for p, _ in enum.patterns],
                    }
                )
    return OracleReport(checked, returned, misses, flags, flagged_misses,
                        ends["stuck"], ends["out_of_fuel"], sldc_steps, dedup_hits, merged)
