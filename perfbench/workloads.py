"""The benchmark's three workloads over the bundled corpus.

An op is one unit of user-visible work.  Ops come in rounds of one op
per corpus entry, in a seeded order, so every entry gets the same number
of ops however long a run lasts.  Inputs are drawn from per-entry RNGs
seeded from the run seed and the entry name through `zlib.crc32`, never
`hash()`, whose value for a string changes with PYTHONHASHSEED.

Each workload has `execute(op)`, the timed call into corhorn, and
`check(op, result)`, the untimed output check, which returns the bytes
that go into the report digest and a failure message or None.
"""

from __future__ import annotations

import json
import random
import zlib
from typing import NamedTuple, Optional

from corhorn import aos, corpus, cos, harness, parser, sldc, smtlib, typeck
from corhorn import logic as L
from corhorn import values as V
from corhorn.syntax import CorError
from corhorn import translate as T

# Inputs as in acceptance criteria 5 and 6: ints -4..4, constructor depth
# at most 3; nondeterministic choices draw from -8..8.
SPEC = L.SampleSpec(-4, 4, max_depth=3)
RAND_RANGE = (-8, 8)
RUN_SEEDS = (0, 1, 2)
LOCKSTEP_FUEL = 250

# SLDC depth per oracle entry.  Below the depth an input needs, the
# returned value is missed with the budget flag raised.  At depth 64 the
# list/tree entries miss every value; lists of up to three elements are
# covered at 300, but a full depth-3 tree (seven nodes) needs between 400
# and 500.  linger_dec_unsafe's violating result needs 58 on each of its
# nine possible inputs.  just_rec takes about 20 s per input at 300.
ORACLE_DEPTH = {
    "inc_max": 40, "inc_max_unsafe": 40,
    "just_rec": 40, "just_rec_unsafe": 40,
    "linger_dec": 40, "linger_dec_unsafe": 60,
    "inc_some": 300, "inc_some_unsafe": 300,
    "inc_some_t": 600, "inc_some_t_unsafe": 600,
}

# Rounds drawn in set-up; a run that gets through more of them starts
# again from round 0.
ROUNDS = 120
# Inputs are drawn in blocks of STRATA rounds, one from each size stratum
# of a sorted pool of STRATA * POOL plain draws (see _Sampled._draws).
STRATA = 4
POOL = 4


class Op(NamedTuple):
    entry: int  # index into CORPUS
    inputs: tuple = ()
    seed: int = 0  # interpreter seed for bisim


def entry_rng(seed: int, name: str) -> random.Random:
    return random.Random((seed << 32) | zlib.crc32(name.encode()))


def _orders(seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    orders = []
    for _ in range(ROUNDS):
        order = list(range(len(corpus.CORPUS)))
        rng.shuffle(order)
        orders.append(order)
    return orders


def _size(op: Op) -> int:
    return sum(len(V.show(v)) for v in op.inputs)


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


class Frontend:
    """The check/translate/solve path: one corpus program and its goal
    turned into an SMT-LIB script.  The seed only orders each round."""

    name = "frontend"

    def __init__(self, seed: int):
        self.texts = [corpus.source_path(e.name).read_text() for e in corpus.CORPUS]
        self.goals = [T.GoalSpec.parse(e.goal) for e in corpus.CORPUS]
        self.rounds = [[Op(i) for i in order] for order in _orders(seed)]

    def execute(self, op: Op):
        prog = parser.parse_program(self.texts[op.entry])
        typing = typeck.type_program(prog)
        system = T.attach_goal(T.translate_program(prog, typing), prog, self.goals[op.entry])
        return system, smtlib.emit_smt2(system)

    def check(self, op: Op, result) -> tuple[bytes, Optional[str]]:
        system, script = result
        payload = script.encode()
        try:
            L.well_sorted_system(system)
        except CorError as e:
            return payload, f"ill-sorted system: {e}"
        lines = script.splitlines()
        if sum(ln.startswith("(declare-fun ") for ln in lines) != len(system.sigs):
            return payload, "not one declare-fun per predicate"
        if sum(ln.startswith("(assert ") for ln in lines) != len(system.clauses):
            return payload, "not one assert per clause"
        if not lines or lines[-1] != "(check-sat)":
            return payload, "no final check-sat"
        return payload, None


class _Sampled:
    """Set-up shared by the workloads that run corpus entry functions on
    sampled inputs: parse and type every entry, draw every round."""

    def __init__(self, seed: int):
        self.progs = [corpus.load(e.name) for e in corpus.CORPUS]
        self.typings = [typeck.type_program(p) for p in self.progs]
        drawn = [self._draws(i, entry_rng(seed, e.name)) for i, e in enumerate(corpus.CORPUS)]
        self.rounds = [[drawn[i][r] for i in order] for r, order in enumerate(_orders(seed))]

    def _draws(self, i: int, rng: random.Random) -> list[Op]:
        """ROUNDS ops for entry i.  The cost of an op grows with the size
        of its inputs, and a run sees only a few dozen ops per entry, so
        plain draws would make the share of large inputs, and the run's
        speed, vary from seed to seed.  Each block of STRATA rounds
        therefore takes one op from each size stratum of a sorted pool;
        as the strata are shuffled and the pick within a stratum is
        uniform, each op is still distributed as a plain draw."""
        ops: list[Op] = []
        while len(ops) < ROUNDS:
            pool = sorted((self._draw(i, rng) for _ in range(STRATA * POOL)), key=_size)
            picks = [pool[k * POOL + rng.randrange(POOL)] for k in range(STRATA)]
            rng.shuffle(picks)
            ops += picks
        return ops[:ROUNDS]

    def _draw(self, i: int, rng: random.Random) -> Op:
        e = corpus.CORPUS[i]
        return Op(i, tuple(corpus.random_inputs(self.progs[i], e.entry_fn, rng, SPEC)))


class Oracle(_Sampled):
    """`harness.oracle_diff` on one input tuple: every value the heap
    interpreter returns under run seeds 0, 1, 2 must be derivable by
    SLDC resolution."""

    name = "oracle"

    def execute(self, op: Op):
        e = corpus.CORPUS[op.entry]
        return harness.oracle_diff(
            self.progs[op.entry], e.entry_fn, [op.inputs], seeds=RUN_SEEDS,
            depth=ORACLE_DEPTH[e.name], typing=self.typings[op.entry], rand_range=RAND_RANGE,
        )

    def check(self, op: Op, report) -> tuple[bytes, Optional[str]]:
        payload = _json_bytes(report.to_json())
        return payload, (f"{len(report.misses)} oracle misses" if report.misses else None)


class Bisim(_Sampled):
    """Both lockstep checks, heap vs prophecy and prophecy vs resolution,
    on one (inputs, interpreter seed) pair, drawn as in criterion 6."""

    name = "bisim"

    def _draw(self, i: int, rng: random.Random) -> Op:
        op = super()._draw(i, rng)
        return op._replace(seed=rng.randrange(2 ** 31))

    def execute(self, op: Op):
        prog, typing = self.progs[op.entry], self.typings[op.entry]
        fn = corpus.CORPUS[op.entry].entry_fn
        inputs = list(op.inputs)
        kw = dict(seed=op.seed, fuel=LOCKSTEP_FUEL, typing=typing, rand_range=RAND_RANGE)
        return (harness.lockstep_cos_aos(prog, fn, inputs, **kw),
                harness.lockstep_aos_sldc(prog, fn, inputs, **kw))

    def check(self, op: Op, reports) -> tuple[bytes, Optional[str]]:
        payload = _json_bytes([r.to_json() for r in reports])
        bad = [r.detail for r in reports if not r.ok]
        return payload, ("; ".join(bad) if bad else None)


WORKLOADS = {w.name: w for w in (Frontend, Oracle, Bisim)}


# -- tracing -------------------------------------------------------------------


def _on_translate(counts, system):
    counts["translate.clauses"] += len(system.clauses)


def _on_emit(counts, script):
    counts["smtlib.script_bytes"] += len(script.encode())


def _on_link(counts, report):
    counts["harness.link_steps"] += len(report.steps)


def _on_run(counts, out):
    counts["cos.run.steps"] += out.steps
    if out.status == "out_of_fuel":
        counts["cos.run.out_of_fuel"] += 1
        counts["cos.run.fuel_steps"] += out.steps


def _on_enumerate(counts, out):
    counts["sldc.enumerate_results.steps"] += out.steps
    counts["sldc.budget_flags"] += int(out.budget_exceeded)
    counts["sldc.patterns"] += len(out.patterns)


def _on_unify(counts, mgu):
    if mgu is None:
        counts["logic.unify.fails"] += 1


def install_spans(tracer, workload: str) -> None:
    """Wrap every traced corhorn function.  `logic.sort_equiv` is only
    counted, and `cos.step` is not wrapped on `oracle`, where it runs
    inside `cos.run` about 1.8M times per 80 inputs: a span per call
    would cost more than the call."""
    w = tracer.wrap
    w(parser, "parse_program")
    w(typeck, "type_program")
    w(T, "translate_program", on_result=_on_translate)
    w(T, "attach_goal")
    w(smtlib, "emit_smt2", on_result=_on_emit)
    w(L, "sort_equiv", span=False)
    w(harness, "lockstep_cos_aos", on_result=_on_link)
    w(harness, "lockstep_aos_sldc", on_result=_on_link)
    w(harness, "safe_link")
    w(harness, "resolutive_of")
    w(aos, "safe_abstract")
    w(aos, "step")
    if workload != "oracle":
        w(cos, "step")
    w(cos, "run", on_result=_on_run)
    w(sldc, "enumerate_results", on_result=_on_enumerate)
    w(sldc, "step")
    w(sldc, "canon_config")
    w(sldc, "calculate")
    w(L, "unify", on_result=_on_unify)


def layer_metrics(selfs: dict, inclusive: dict, counts: dict) -> dict:
    """Per-layer values of one traced block: `<span>.self_s` for every
    span, every count, and the ratios derived from them."""
    def ratio(a, b):
        return a / b if b else 0.0

    out = {f"{name}.self_s": v for name, v in selfs.items()}
    out.update(counts)
    out["cos.run.fuel_steps_frac"] = ratio(counts.get("cos.run.fuel_steps", 0),
                                           counts.get("cos.run.steps", 0))
    out["cos.steps_per_s"] = ratio(counts.get("cos.run.steps", 0), inclusive.get("cos.run", 0))
    out["sldc.steps_per_s"] = ratio(counts.get("sldc.enumerate_results.steps", 0),
                                    inclusive.get("sldc.enumerate_results", 0))
    out["logic.unify.fail_frac"] = ratio(counts.get("logic.unify.fails", 0),
                                         counts.get("logic.unify.calls", 0))
    return out
