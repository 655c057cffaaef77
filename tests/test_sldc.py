import hashlib
import json
import random
import zlib

import pytest

from corhorn import corpus, logic as L, sldc, syntax as S, translate, typeck, values as V
from corhorn.logic import Atom, CHCSystem, Clause, SampleSpec


@pytest.fixture(scope="module")
def inc_max_sys():
    prog = corpus.load("inc_max")
    typing = typeck.type_program(prog)
    return prog, typing, translate.translate_program(prog, typing)


def test_step_return_clause(inc_max_sys):
    prog, typing, sys = inc_max_sys
    renamer = sldc.Renamer()
    cfg = sldc.ResConfig(
        (Atom("take_max!L4", (V.MutPair(4, V.Var("ao")), V.Var("r"))),),
        V.Var("r"),
        {"ao": L.INT_S, "r": L.MutS(L.INT_S)},
    )
    out = sldc.step(cfg, sys.by_pred()["take_max!L4"], renamer, SampleSpec(-8, 8))
    assert len(out) == 1 and out[0].done
    # res is forced to equal ma: the non-linear head pins r to <4, ao>
    assert L.refines_to(out[0].result, V.MutPair(4, 7))
    assert not L.refines_to(out[0].result, V.MutPair(5, 7))


def test_empty_body_clause_pops_stack():
    sys = CHCSystem(
        [Clause((("x", L.INT_S),), Atom("p", (V.Var("x"),)), ())],
        {"p": (L.INT_S,)},
    )
    cfg = sldc.ResConfig((Atom("p", (3,)),), 3, {})
    out = sldc.step(cfg, sys.clauses, sldc.Renamer(), SampleSpec(-2, 2))
    assert len(out) == 1 and out[0].done


def test_step_renames_every_candidate():
    # the first head fails on 3 != 4, yet its binders still take x!1, y!2
    clauses = [
        Clause((("x", L.INT_S), ("y", L.INT_S)), Atom("p", (4, V.Var("x"))), ()),
        Clause((("z", L.INT_S), ("w", L.INT_S)), Atom("p", (V.Var("z"), V.Var("w"))),
               (Atom("q", (V.Var("w"),)),)),
    ]
    cfg = sldc.ResConfig((Atom("p", (3, V.Var("r"))),), V.Var("r"), {"r": L.INT_S})
    (nxt,) = sldc.step(cfg, clauses, sldc.Renamer(), SampleSpec(-2, 2))
    assert nxt.stack == (Atom("q", (V.Var("w!4"),)),)
    assert nxt.result == V.Var("w!4")
    assert nxt.sorts == {"r": L.INT_S, "z!3": L.INT_S, "w!4": L.INT_S}


def test_rand_clause_leaves_dont_care(inc_max_sys):
    prog = corpus.load("just_rec")
    typing = typeck.type_program(prog)
    sys = translate.translate_program(prog, typing)
    # the entry statement draws a random int: resolution leaves it loose
    renamer = sldc.Renamer()
    cfg = sldc.ResConfig(
        (Atom("just_rec!entry", (V.MutPair(5, V.Var("ao")), V.Var("r"))),),
        V.Var("r"),
        {"ao": L.INT_S, "r": L.BoxS(L.BOOL_S)},
    )
    (nxt,) = sldc.step(cfg, sys.by_pred()["just_rec!entry"], renamer, SampleSpec(-8, 8))
    assert nxt.stack[0].pred == "just_rec!L1"
    all_vars = set()
    for arg in nxt.stack[0].args:
        all_vars |= V.vars_in(arg)
    new_vars = all_vars - {"ao", "r"}
    assert new_vars, "the drawn integer stays an unconstrained variable"


def test_enumerate_inc_max(inc_max_sys):
    prog, typing, sys = inc_max_sys
    out = sldc.enumerate_results(sys, "inc_max!entry", (V.Box(4), V.Box(3)), depth=40)
    assert not out.budget_exceeded
    assert sldc.covers_value(out, V.Box(V.TRUE))
    assert not sldc.covers_value(out, V.Box(V.FALSE))


def test_enumerate_no_clauses():
    sys = CHCSystem([], {"p": (L.INT_S, L.INT_S)})
    out = sldc.enumerate_results(sys, "p", (3,), depth=10)
    assert out.patterns == [] and not out.budget_exceeded


def test_enumerate_unbounded_recursion_flags():
    prog = corpus.load("linger_dec")
    sys = translate.translate_program(prog)
    out = sldc.enumerate_results(
        sys, "linger_dec_main!entry", (V.Box(2),), depth=25, spec=SampleSpec(-3, 3)
    )
    assert out.budget_exceeded  # recursion deeper than the budget remains
    assert any(L.refines_to(p, V.Box(V.TRUE)) for p, _ in out.patterns)


def test_canon_config_renaming():
    a = sldc.ResConfig((Atom("p", (V.Var("x"), V.Var("x"))),), V.Var("x"), {})
    b = sldc.ResConfig((Atom("p", (V.Var("z"), V.Var("z"))),), V.Var("z"), {})
    c = sldc.ResConfig((Atom("p", (V.Var("z"), V.Var("w"))),), V.Var("z"), {})
    assert sldc.canon_config(a) == sldc.canon_config(b)
    assert sldc.canon_config(a) != sldc.canon_config(c)


# -- bottom-up oracle -----------------------------------------------------------


@pytest.fixture(scope="module")
def oracle_facts(inc_max_sys):
    _, _, sys = inc_max_sys
    spec = SampleSpec(-2, 2)
    return sys, spec, sldc.bottom_up_facts(sys, spec)


def test_oracle_take_max_facts(oracle_facts):
    sys, spec, facts = oracle_facts
    tm = facts["take_max!entry"]
    # every fact respects the borrow contract: the loser's final value
    # equals its current value, and the winner is returned
    for ma, mb, r in tm:
        if ma.cur >= mb.cur:
            assert mb.fin == mb.cur and r == ma
        else:
            assert ma.fin == ma.cur and r == mb
    assert len(tm) == 125  # 5^2 ordered pairs, free prophecy on the winner


def test_oracle_inc_max_facts_all_true(oracle_facts):
    _, _, facts = oracle_facts
    for a, b, r in facts["inc_max!entry"]:
        assert r == V.Box(V.TRUE)


def test_sldc_complete_for_oracle_facts(oracle_facts):
    # bottom-up derivable facts are all reachable top-down
    sys, spec, facts = oracle_facts
    for pred in ("inc_max!entry", "take_max!entry"):
        sample = sorted(facts[pred], key=repr)[:60]
        for fact in sample:
            out = sldc.enumerate_results(sys, pred, fact[:-1], depth=64, spec=spec)
            assert sldc.covers_value(out, fact[-1]), (pred, fact)


def test_sldc_sound_for_saturated_system(oracle_facts):
    # top-down results, once refined, appear among the bottom-up facts
    sys, spec, facts = oracle_facts
    rng = random.Random(0)
    domain = list(range(spec.int_lo, spec.int_hi + 1))
    for _ in range(40):
        a, b = rng.choice(domain), rng.choice(domain)
        out = sldc.enumerate_results(sys, "inc_max!entry", (V.Box(a), V.Box(b)), depth=64, spec=spec)
        for pattern, sorts in out.patterns:
            value = L.refine_default(pattern, sorts, spec)
            # stay inside the oracle's bounded domain before comparing
            if all(spec.int_lo <= leaf <= spec.int_hi
                   for leaf in _int_leaves(value)):
                if (V.Box(a), V.Box(b), value) not in facts["inc_max!entry"]:
                    # the incremented cell can leave the domain; only then
                    # may the fact be absent
                    assert max(a, b) + 1 > spec.int_hi, (a, b, value)


def _int_leaves(v):
    if isinstance(v, int):
        yield v
    for k in V.children(v):
        yield from _int_leaves(k)


def test_oracle_budget_exception():
    # a clause whose body cannot constrain its head forces enumeration
    sys = CHCSystem(
        [Clause((("m", L.MutS(L.MutS(L.INT_S))),), Atom("p", (V.Var("m"),)), ())],
        {"p": (L.MutS(L.MutS(L.INT_S)),)},
    )
    with pytest.raises(sldc.OracleBudget):
        sldc.bottom_up_facts(sys, SampleSpec(-8, 8), enum_cap=100)


# -- pinned enumeration -----------------------------------------------------------

ENUM_SPEC = SampleSpec(-4, 4, max_depth=3)
ENUM_INPUTS = 4  # sampled input tuples per corpus entry
ENUM_WIDTH = 400
# deep enough that some inputs of each entry derive a result
ENUM_DEPTH = {"linger_dec": 60, "linger_dec_unsafe": 60, "inc_some": 150,
              "inc_some_unsafe": 150, "inc_some_t": 300, "inc_some_t_unsafe": 300}

# SHA-256 per corpus entry over the shown result patterns, `steps` and
# `budget_exceeded` of enumerate_results on zlib.crc32-seeded inputs.
PINNED_ENUM_DIGESTS = {
    "inc_max": "92dee532fbed12c9bcc6e044dfedd316753cb2207b86b07ef562bafd65fe3b39",
    "inc_max_unsafe": "7efa8c7f4a29797b6f1515ee1e8b8ca114e694c0c4a4aeaa99b888d0462e7e82",
    "just_rec": "a2dc1f016ff8aa20a6899dfd6b38fc25b8604dad88eb31cc142460c32a9a7258",
    "just_rec_unsafe": "f4f6d9636d33c28f93eccd0ce9dab461d3ef7ff249d3b26c4628f06d258f4474",
    "linger_dec": "44f72b278ececa336cef4861ca563446d171a11207dd0d0c1e4bda3b8a71d6a0",
    "linger_dec_unsafe": "0b25e2c0b1bbe9929dc24803d3c30978f53400f74f765fb8107f8d35d5708fbd",
    "inc_some": "5617d9cbf9f39e1d11d60281626c5443527f377fa4c2f11f8ecb345ae0cc1702",
    "inc_some_unsafe": "eab992360b9e1cfd1fef4d99ab5e008221c005565f5522a8af3bef5560b983d1",
    "inc_some_t": "8ced9045ffd7831c11de41416efc115a2c7ff72f555e368a3fd313ce1552a1f1",
    "inc_some_t_unsafe": "3647d6717b8b828aeb35b843a42bf7ff613d6d968821b158d313fc7698172c7d",
}


def _enum_digest(e) -> str:
    prog = corpus.load(e.name)
    system = translate.translate_program(prog, typeck.type_program(prog))
    pred = L.pred_name(e.entry_fn, S.ENTRY)
    rng = random.Random(zlib.crc32(e.name.encode()))
    blob = []
    for _ in range(ENUM_INPUTS):
        inputs = tuple(corpus.random_inputs(prog, e.entry_fn, rng, ENUM_SPEC))
        out = sldc.enumerate_results(system, pred, inputs, depth=ENUM_DEPTH.get(e.name, 40),
                                     width=ENUM_WIDTH, spec=ENUM_SPEC)
        blob.append([[V.show(v) for v in inputs], [V.show(p) for p, _ in out.patterns],
                     out.steps, out.budget_exceeded])
    return hashlib.sha256(json.dumps(blob).encode()).hexdigest()


def test_enumeration_pinned():
    digests = {e.name: _enum_digest(e) for e in corpus.CORPUS}
    assert digests == PINNED_ENUM_DIGESTS
