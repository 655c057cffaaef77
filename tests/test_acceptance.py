"""Acceptance suite.

One test per criterion; each prints a single PASS line (visible with
pytest -s or in the captured output) and enforces its runtime budget.
The solver-integration criterion is gated on an available CHC solver
and skips cleanly otherwise.
"""

import itertools
import json
import os
import random
import time
import zlib

import pytest

from corhorn import aos, corpus, cos, harness, logic as L, smtlib, sldc
from corhorn import translate as T, typeck, values as V
from corhorn.logic import SampleSpec

from helpers import (
    box, inj, match_aos_trace, match_cos_trace, mklist, mut,
    inc_some_system, linger_dec_system, take_max_inc_max_system,
)


def report(n, detail):
    print(f"\nACCEPTANCE {n}: PASS  {detail}")


@pytest.fixture(scope="module")
def inc_max():
    prog = corpus.load("inc_max")
    return prog, typeck.type_program(prog)


# -- 1: typing goldens --------------------------------------------------------


def test_criterion_1_typing_goldens(inc_max):
    t0 = time.time()
    prog, typing = inc_max
    entry = typeck.context_json(typing.ctx("take_max", "entry"))
    assert entry == {
        "vars": {
            "ma": {"activeness": "active", "type": "mut<'a> int"},
            "mb": {"activeness": "active", "type": "mut<'a> int"},
        },
        "lifetimes": {"carrier": ["a"], "order": [["a", "a"]]},
    }
    l3 = typeck.context_json(typing.ctx("inc_max", "L3"))
    assert l3 == {
        "vars": {
            "ma": {"activeness": "active", "type": "mut<'a> int"},
            "mb": {"activeness": "active", "type": "mut<'a> int"},
            "oa": {"activeness": "frozen 'a", "type": "own int"},
            "ob": {"activeness": "frozen 'a", "type": "own int"},
        },
        "lifetimes": {"carrier": ["a"], "order": [["a", "a"]]},
    }
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, f"typing goldens exact ({elapsed:.2f}s)")


# -- 2: concrete trace golden ---------------------------------------------------

# the published example execution: 14 recorded waypoints, addresses
# written symbolically (S, H, D, C and D1 for the cell after D)


def _f(fn, label, frame, recv=None):
    return {"fn": fn, "label": label, "recv": recv, "frame": frame}


COS_WAYPOINTS = [
    {"stack": [_f("inc_max", "entry", {"oa": "S", "ob": "H"})], "heap": {"S": 4, "H": 3}},
    {"stack": [_f("inc_max", "L1", {"oa": "S", "ob": "H"})], "heap": {"S": 4, "H": 3}},
    {"stack": [_f("inc_max", "L3", {"ma": "S", "mb": "H", "oa": "S", "ob": "H"})],
     "heap": {"S": 4, "H": 3}},
    {"stack": [_f("take_max", "entry", {"ma": "S", "mb": "H"}),
               _f("inc_max", "L4", {"oa": "S", "ob": "H"}, recv="mc")],
     "heap": {"S": 4, "H": 3}},
    {"stack": [_f("take_max", "L1", {"ord": "D", "ma": "S", "mb": "H"}),
               _f("inc_max", "L4", {"oa": "S", "ob": "H"}, recv="mc")],
     "heap": {"S": 4, "H": 3, "D": 1}},
    {"stack": [_f("take_max", "L2", {"ou": "D1", "ma": "S", "mb": "H"}),
               _f("inc_max", "L4", {"oa": "S", "ob": "H"}, recv="mc")],
     "heap": {"S": 4, "H": 3}},
    {"stack": [_f("take_max", "L4", {"ma": "S"}),
               _f("inc_max", "L4", {"oa": "S", "ob": "H"}, recv="mc")],
     "heap": {"S": 4, "H": 3}},
    {"stack": [_f("inc_max", "L4", {"mc": "S", "oa": "S", "ob": "H"})],
     "heap": {"S": 4, "H": 3}},
    {"stack": [_f("inc_max", "L5", {"o1": "D", "mc": "S", "oa": "S", "ob": "H"})],
     "heap": {"S": 4, "H": 3, "D": 1}},
    {"stack": [_f("inc_max", "L7", {"oc2": "C", "mc": "S", "oa": "S", "ob": "H"})],
     "heap": {"S": 4, "H": 3, "C": 5}},
    {"stack": [_f("inc_max", "L8", {"oc2": "C", "mc": "S", "oa": "S", "ob": "H"})],
     "heap": {"S": 5, "H": 3, "C": 4}},
    {"stack": [_f("inc_max", "L10", {"oa": "S", "ob": "H"})], "heap": {"S": 5, "H": 3}},
    {"stack": [_f("inc_max", "L11", {"oa": "S", "ob": "H"})], "heap": {"S": 5, "H": 3}},
    {"stack": [_f("inc_max", "L14", {"or": "D"})], "heap": {"D": 1}},
]


def test_criterion_2_cos_trace_golden(inc_max):
    t0 = time.time()
    prog, typing = inc_max
    out = cos.run(prog, "inc_max", [V.Box(4), V.Box(3)], typing=typing)
    assert out.status == "returned"
    assert out.value == V.Box(V.TRUE)
    match_cos_trace(out.trace, COS_WAYPOINTS)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(2, f"14 waypoints matched modulo address renaming ({elapsed:.2f}s)")


# -- 3: abstract trace golden ----------------------------------------------------

TH = {"a": "a@0"}

AOS_WAYPOINTS = [
    {"stack": [_f("inc_max", "entry", {"oa": box(4), "ob": box(3)})], "carrier": []},
    {"stack": [_f("inc_max", "L1", {"oa": box(4), "ob": box(3)})], "carrier": ["a@0"]},
    {"stack": [_f("inc_max", "L3", {"ma": mut(4, "A"), "mb": mut(3, "B"),
                                    "oa": box("A"), "ob": box("B")})],
     "carrier": ["a@0"]},
    {"stack": [_f("take_max", "entry", {"ma": mut(4, "A"), "mb": mut(3, "B")}),
               _f("inc_max", "L4", {"oa": box("A"), "ob": box("B")}, recv="mc")],
     "carrier": ["a@0"]},
    {"stack": [_f("take_max", "L1", {"ord": box(inj(1, V.UNIT)), "ma": mut(4, "A"),
                                     "mb": mut(3, "B")}),
               _f("inc_max", "L4", {"oa": box("A"), "ob": box("B")}, recv="mc")],
     "carrier": ["a@0"]},
    {"stack": [_f("take_max", "L2", {"ou": box(V.UNIT), "ma": mut(4, "A"),
                                     "mb": mut(3, "B")}),
               _f("inc_max", "L4", {"oa": box("A"), "ob": box("B")}, recv="mc")],
     "carrier": ["a@0"]},
    # dropping mb resolves its prophecy to 3
    {"stack": [_f("take_max", "L4", {"ma": mut(4, "A")}),
               _f("inc_max", "L4", {"oa": box("A"), "ob": box(3)}, recv="mc")],
     "carrier": ["a@0"]},
    {"stack": [_f("inc_max", "L4", {"mc": mut(4, "A"), "oa": box("A"), "ob": box(3)})],
     "carrier": ["a@0"]},
    {"stack": [_f("inc_max", "L5", {"o1": box(1), "mc": mut(4, "A"),
                                    "oa": box("A"), "ob": box(3)})],
     "carrier": ["a@0"]},
    {"stack": [_f("inc_max", "L7", {"oc2": box(5), "mc": mut(4, "A"),
                                    "oa": box("A"), "ob": box(3)})],
     "carrier": ["a@0"]},
    {"stack": [_f("inc_max", "L8", {"oc2": box(4), "mc": mut(5, "A"),
                                    "oa": box("A"), "ob": box(3)})],
     "carrier": ["a@0"]},
    # dropping mc resolves the first prophecy to the updated value 5
    {"stack": [_f("inc_max", "L10", {"oa": box(5), "ob": box(3)})], "carrier": ["a@0"]},
    {"stack": [_f("inc_max", "L11", {"oa": box(5), "ob": box(3)})], "carrier": []},
    {"stack": [_f("inc_max", "L14", {"or": box(inj(1, V.UNIT))})], "carrier": []},
]


def test_criterion_3_aos_trace_golden(inc_max):
    t0 = time.time()
    prog, typing = inc_max
    out = aos.run(prog, "inc_max", [V.Box(4), V.Box(3)], typing=typing, check_safety=True)
    assert out.status == "returned"
    assert out.value == V.Box(V.TRUE)
    for wp in AOS_WAYPOINTS:
        for f in wp["stack"]:
            f.setdefault("theta", TH if wp["carrier"] else {})
    # frames of take_max share the same mapping name 'a -> a@0
    match_aos_trace(out.trace, AOS_WAYPOINTS)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(3, f"14 waypoints matched modulo prophecy renaming ({elapsed:.2f}s)")


# -- 4: translation golden ---------------------------------------------------------


def test_criterion_4_translation_golden(inc_max):
    t0 = time.time()
    from test_translate import clause_canon, expected_take_max_clauses

    prog, typing = inc_max
    sys_ = T.translate_program(prog, typing)
    got = [c for c in sys_.clauses if c.tag[0] == "take_max"]
    assert len(got) == 9
    assert sorted(map(clause_canon, got)) == sorted(
        map(clause_canon, expected_take_max_clauses())
    )
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(4, f"9 clauses alpha-equivalent to the reference listing ({elapsed:.2f}s)")


# -- 5: end-to-end differential oracle ----------------------------------------------


def test_criterion_5_oracle_diff():
    t0 = time.time()
    prog = corpus.load("inc_max")
    inputs = [(V.Box(a), V.Box(b)) for a in range(-8, 9) for b in range(-8, 9)]
    rep = harness.oracle_diff(prog, "inc_max", inputs, seeds=(0,), depth=40)
    assert rep.checked == 289 and rep.returned == 289
    assert rep.misses == []

    prog2 = corpus.load("inc_some")
    lists = [()]
    for n in (1, 2, 3):
        lists += list(itertools.product(range(-4, 5), repeat=n))
    inputs2 = [(V.Box(mklist(*xs)),) for xs in lists]
    rep2 = harness.oracle_diff(
        prog2, "inc_some", inputs2, seeds=(0, 1, 2), depth=300, rand_range=(-8, 8)
    )
    assert rep2.checked == 820
    assert rep2.misses == []
    elapsed = time.time() - t0
    assert elapsed < 300
    report(5, f"zero misses on {rep.checked}+{rep2.checked} inputs ({elapsed:.0f}s)")


# -- 6: bisimulation suites ----------------------------------------------------------


def test_criterion_6_bisimulation_suites():
    t0 = time.time()
    total = 0
    spec = SampleSpec(-4, 4, max_depth=3)
    for e in corpus.CORPUS:
        prog = corpus.load(e.name)
        typing = typeck.type_program(prog)
        rng = random.Random(zlib.crc32(e.name.encode()))
        for run in range(100):
            inputs = corpus.random_inputs(prog, e.entry_fn, rng, spec)
            seed = rng.randrange(2 ** 31)
            r1 = harness.lockstep_cos_aos(
                prog, e.entry_fn, inputs, seed=seed, fuel=250, typing=typing,
                rand_range=(-8, 8),
            )
            assert r1.ok, (e.name, [V.show(v) for v in inputs], seed, r1.detail)
            r2 = harness.lockstep_aos_sldc(
                prog, e.entry_fn, inputs, seed=seed, fuel=250, typing=typing,
                rand_range=(-8, 8),
            )
            assert r2.ok, (e.name, [V.show(v) for v in inputs], seed, r2.detail)
            total += 2
    elapsed = time.time() - t0
    assert total >= 200 * len(corpus.CORPUS)
    assert elapsed < 300
    report(6, f"{total} lockstep runs, zero divergences ({elapsed:.0f}s)")


# -- 7: model validation ---------------------------------------------------------------


def test_criterion_7_model_validation():
    t0 = time.time()
    spec = SampleSpec(-8, 8, max_depth=4)
    checked = 0
    for name, builder in (
        ("take_max/inc_max", take_max_inc_max_system),
        ("choose/linger_dec", linger_dec_system),
        ("take_some/sum/inc_some", inc_some_system),
    ):
        sys_, model = builder()
        L.well_sorted_system(sys_)
        verdict = L.check_model_sampled(sys_, model, spec, budget=10 ** 5, seed=7)
        assert not verdict.violated, (name, verdict.clause, verdict.valuation)
        checked += verdict.checked
    elapsed = time.time() - t0
    assert elapsed < 120
    report(7, f"three reference models validated, {checked} valuations ({elapsed:.0f}s)")


# -- 8: external solver integration (environment-gated) --------------------------------


def _find_solver():
    # an explicitly configured solver is used unprobed, so one that errors
    # fails the criterion instead of skipping it
    env = os.environ.get("CORHORN_SOLVER")
    if env:
        return smtlib.solver_from_command(env)
    return smtlib.find_solver()


def _solve(cfg, name, goal):
    prog = corpus.load(name)
    sys_ = T.translate_program(prog)
    sys_ = T.attach_goal(sys_, prog, T.GoalSpec.parse(goal))
    return smtlib.run_solver(cfg, smtlib.emit_smt2(sys_))


def test_criterion_8_explicit_solver_is_not_probed(tmp_path, monkeypatch):
    broken = tmp_path / "solver"
    broken.write_text("#!/bin/sh\necho 'no backend' >&2\nexit 1\n")
    broken.chmod(0o755)
    monkeypatch.setenv("CORHORN_SOLVER", str(broken))
    cfg = _find_solver()
    assert cfg is not None and cfg.command == (str(broken),)
    assert _solve(cfg, "inc_max", "inc_max returns true").status == "error"


def test_criterion_8_solver_integration():
    cfg = _find_solver()
    if cfg is None:
        pytest.skip("no CHC solver available (set CORHORN_SOLVER or install z3/hoice)")
    t0 = time.time()
    safe = _solve(cfg, "inc_max", "inc_max returns true")
    assert safe.holds is True, safe
    unsafe = _solve(cfg, "inc_max_unsafe", "inc_max returns true")
    assert unsafe.holds is False, unsafe
    lists_note = "lists row skipped (needs hoice)"
    solver = " ".join(cfg.command)
    if "hoice" in solver.lower():
        lists = _solve(cfg, "inc_some", "inc_some returns true")
        assert lists.holds is True, lists
        lists_note = "lists row verified"
    report(8, f"{solver}: safe verified, unsafe refuted; {lists_note} ({time.time()-t0:.0f}s)")
