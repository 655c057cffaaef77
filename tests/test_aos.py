import random

import pytest

from corhorn import aos, corpus, parser, syntax as S, typeck, values as V
from corhorn.aos import AbsSupply

from helpers import HASH_SEEDS, mklist, python_under_hash_seed


def T(src):
    return parser.parse_type(src)


@pytest.fixture(scope="module")
def inc_max_setup():
    prog = corpus.load("inc_max")
    return prog, typeck.type_program(prog)


def run_to(prog, typing, fname, inputs, label, seed=0):
    out = aos.run(prog, fname, inputs, seed=seed, typing=typing)
    for cfg in out.trace:
        if (cfg.top.fn, cfg.top.label) == (fname, label):
            return cfg
    raise AssertionError(f"label {label} not reached")


def test_mutbor_introduces_prophecy(inc_max_setup):
    prog, typing = inc_max_setup
    cfg = run_to(prog, typing, "inc_max", [V.Box(4), V.Box(3)], "L2")
    ma = cfg.top.frame["ma"]
    oa = cfg.top.frame["oa"]
    assert isinstance(ma, V.MutPair) and ma.cur == 4 and isinstance(ma.fin, V.AbsVar)
    assert oa == V.Box(ma.fin)


def test_drop_mut_substitutes_current_value(inc_max_setup):
    prog, typing = inc_max_setup
    before = run_to(prog, typing, "inc_max", [V.Box(4), V.Box(3)], "L9")
    after = run_to(prog, typing, "inc_max", [V.Box(4), V.Box(3)], "L10")
    mc = before.top.frame["mc"]
    assert isinstance(mc, V.MutPair) and mc.cur == 5
    assert after.top.frame["oa"] == V.Box(5)  # the prophecy resolved to 5


def test_substitution_hygiene(inc_max_setup):
    prog, typing = inc_max_setup
    out = aos.run(prog, "inc_max", [V.Box(4), V.Box(3)], typing=typing)
    dropped = None
    for prev, cur in zip(out.trace, out.trace[1:]):
        before = prev.absvar_uids()
        after = cur.absvar_uids()
        for uid in before - after:
            assert uid not in after


def test_run_inc_max(inc_max_setup):
    prog, typing = inc_max_setup
    out = aos.run(prog, "inc_max", [V.Box(4), V.Box(3)], typing=typing)
    assert out.status == "returned" and out.value == V.Box(V.TRUE)
    out2 = aos.run(prog, "inc_max", [V.Box(3), V.Box(3)], typing=typing)
    assert out2.value == V.Box(V.TRUE)  # 3,3: max bumped to 4, 4 != 3


def test_fuel_zero(inc_max_setup):
    prog, typing = inc_max_setup
    out = aos.run(prog, "inc_max", [V.Box(4), V.Box(3)], fuel=0, typing=typing)
    assert out.status == "out_of_fuel"


def test_results_are_abs_free():
    rng = random.Random(11)
    from corhorn.logic import SampleSpec

    for name in ("inc_max", "inc_some", "just_rec"):
        e = corpus.entry(name)
        prog = corpus.load(name)
        typing = typeck.type_program(prog)
        for trial in range(5):
            ins = corpus.random_inputs(prog, e.entry_fn, rng, SampleSpec(-3, 3, max_depth=3))
            out = aos.run(prog, e.entry_fn, ins, seed=trial, fuel=600, typing=typing, keep_trace=False)
            if out.status == "returned":
                assert V.is_value(out.value)


# -- summaries ----------------------------------------------------------------


def test_summary_hot_mut_gives():
    x = V.AbsVar(7, "x◦")
    out = aos.summarize_prevalue(V.MutPair(4, x), T("mut<'a> int"), aos.HOT, None)
    assert list(out.keys()) == [aos.Give("a", 7, S.canon(S.INT))]


def test_summary_frozen_lender_takes():
    x = V.AbsVar(9, "x◦")
    out = aos.summarize_prevalue(V.Box(x), T("own int"), aos.HOT, "a@0")
    assert list(out.keys()) == [aos.Take("a@0", 9, S.canon(S.INT))]


def test_summary_plain_owner_empty():
    out = aos.summarize_prevalue(V.Box(4), T("own int"), aos.HOT, None)
    assert not out


def test_summary_cold_mut_suppressed():
    # a mut reference seen through an immutable reference contributes no give
    x = V.AbsVar(3, "x◦")
    v = V.Box(V.MutPair(5, x))
    out = aos.summarize_prevalue(v, T("immut<'a> (mut<'b> int)"), aos.HOT, None)
    assert not out


def test_summary_shape_mismatch():
    with pytest.raises(aos.ShapeMismatch):
        aos.summarize_prevalue(V.AbsVar(1, "a"), T("own int"), aos.HOT, None)


# -- safety -------------------------------------------------------------------


def test_safe_abstract_along_trace(inc_max_setup):
    prog, typing = inc_max_setup
    out = aos.run(prog, "inc_max", [V.Box(4), V.Box(3)], typing=typing)
    for cfg in out.trace:
        ok, diags = aos.safe_abstract(prog, typing, cfg)
        assert ok, diags


def test_unsafe_double_give(inc_max_setup):
    prog, typing = inc_max_setup
    cfg = run_to(prog, typing, "inc_max", [V.Box(4), V.Box(3)], "L2")
    ma = cfg.top.frame["ma"]
    top = cfg.top
    frame = dict(top.frame)
    frame["ob"] = V.MutPair(3, ma.fin)  # second give of the same prophecy
    bad = aos.AbsConfig(
        (aos.AbsFrameEntry(top.fn, top.label, top.theta, top.recv, frame),), cfg.lft
    )
    ok, diags = aos.safe_abstract(prog, typing, bad)
    assert not ok


def test_initial_simple_config_safe(inc_max_setup):
    prog, typing = inc_max_setup
    cfg = aos.initial_config(prog, "inc_max", [V.Box(4), V.Box(3)])
    ok, diags = aos.safe_abstract(prog, typing, cfg)
    assert ok, diags


def test_preservation_randomized():
    # safety before a step implies safety after, for at least 10^4
    # randomized steps across the corpus
    from corhorn.logic import SampleSpec

    rng = random.Random(13)
    total = 0
    for e in corpus.CORPUS:
        prog = corpus.load(e.name)
        typing = typeck.type_program(prog)
        for trial in range(8):
            ins = corpus.random_inputs(prog, e.entry_fn, rng, SampleSpec(-3, 3, max_depth=3))
            supply = AbsSupply()
            step_rng = random.Random(trial)
            cfg = aos.initial_config(prog, e.entry_fn, ins)
            ok, diags = aos.safe_abstract(prog, typing, cfg)
            assert ok, diags
            for _ in range(400):
                res = aos.step(prog, typing, cfg, step_rng, supply)
                if not isinstance(res, aos.Next):
                    assert not isinstance(res, aos.Stuck), res
                    break
                cfg = res.config
                ok, diags = aos.safe_abstract(prog, typing, cfg)
                assert ok, (e.name, diags)
                total += 1
    assert total >= 10_000


def test_progression_on_safe_configs():
    # a safe non-final configuration always steps
    prog = corpus.load("inc_some")
    typing = typeck.type_program(prog)
    supply = AbsSupply()
    rng = random.Random(1)
    cfg = aos.initial_config(prog, "inc_some", [V.Box(mklist(2, 1))])
    for _ in range(300):
        if aos.is_final(prog, cfg):
            break
        ok, _ = aos.safe_abstract(prog, typing, cfg)
        assert ok
        res = aos.step(prog, typing, cfg, rng, supply)
        assert isinstance(res, aos.Next)
        cfg = res.config


MIS_TAGGED_FRAME = """
from corhorn import aos
from corhorn.typeck import LftCtx
lfts = ["a", "b", "c", "d", "e"]
glob = LftCtx.make([l + "@1" for l in lfts], [])
local = LftCtx.make(lfts, [("a", "b"), ("c", "d")])
for d in aos.lifetime_safe_frame(glob, {l: l + "@1" for l in lfts}, local, frozenset(), 0):
    print(d)
"""


def test_lifetime_safe_frame_diagnostics_independent_of_hash_seed():
    expected = [f"frame 0: local '{l} maps to {l}@1, expected {l}@0" for l in "abcde"] + [
        "frame 0: order of 'a,'b disagrees with global",
        "frame 0: order of 'c,'d disagrees with global",
    ]
    for seed in HASH_SEEDS:
        proc = python_under_hash_seed(seed, "-c", MIS_TAGGED_FRAME)
        assert proc.stdout.splitlines() == expected, seed
