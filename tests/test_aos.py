import dataclasses
import hashlib
import json
import random
import zlib

import pytest

from corhorn import aos, corpus, parser, syntax as S, typeck, values as V
from corhorn.aos import AbsSupply
from corhorn.logic import SampleSpec
from corhorn.typeck import VarInfo

from helpers import HASH_SEEDS, absvar_uids, is_final, mklist, python_under_hash_seed
from helpers import parse_type as T


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
        before = absvar_uids(prev)
        after = absvar_uids(cur)
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
    out = aos.Walk().add({}, VarInfo(T("mut<'a> int")), V.MutPair(4, x)).summary
    assert list(out.keys()) == [aos.Give("a", 7, S.canon(S.INT))]


def test_summary_frozen_lender_takes():
    x = V.AbsVar(9, "x◦")
    out = aos.Walk().add({"a": "a@0"}, VarInfo(T("own int"), "a"), V.Box(x)).summary
    assert list(out.keys()) == [aos.Take("a@0", 9, S.canon(S.INT))]


def test_summary_plain_owner_empty():
    out = aos.Walk().add({}, VarInfo(T("own int")), V.Box(4)).summary
    assert not out


def test_summary_cold_mut_suppressed():
    # a mut reference seen through an immutable reference contributes no give
    x = V.AbsVar(3, "x◦")
    v = V.Box(V.MutPair(5, x))
    out = aos.Walk().add({}, VarInfo(T("immut<'a> (mut<'b> int)")), v).summary
    assert not out


def test_summary_shape_mismatch():
    walk = aos.Walk().add({}, VarInfo(T("own int")), V.AbsVar(1, "a"))
    assert walk.diags == ["expected box, abstract side has a"]


# -- safety -------------------------------------------------------------------


def test_safe_abstract_along_trace(inc_max_setup):
    prog, typing = inc_max_setup
    out = aos.run(prog, "inc_max", [V.Box(4), V.Box(3)], typing=typing)
    for cfg in out.trace:
        ok, diags = aos.safe_abstract(typing, cfg)
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
    ok, diags = aos.safe_abstract(typing, bad)
    assert not ok


def test_initial_simple_config_safe(inc_max_setup):
    prog, typing = inc_max_setup
    cfg = aos.initial_config(prog, "inc_max", [V.Box(4), V.Box(3)])
    ok, diags = aos.safe_abstract(typing, cfg)
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
            ok, diags = aos.safe_abstract(typing, cfg)
            assert ok, diags
            for _ in range(400):
                res = aos.step(prog, typing, cfg, step_rng, supply)
                if not isinstance(res, aos.Next):
                    assert not isinstance(res, aos.Stuck), res
                    break
                cfg = res.config
                ok, diags = aos.safe_abstract(typing, cfg)
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
        if is_final(prog, cfg):
            break
        ok, _ = aos.safe_abstract(typing, cfg)
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


# -- pinned safety verdicts -----------------------------------------------------

GUARD_SPEC = SampleSpec(-4, 4, max_depth=3)


def _guard_programs():
    from test_features import CASES

    progs = [(e.name, corpus.load(e.name), e.entry_fn) for e in corpus.CORPUS]
    return progs + [(n, parser.parse_program(src), fn) for n, src, fn, _, _ in CASES]


def _rename(v, uid, new, fin, here=False):
    """v with prophecy uid renamed to new where it is a mutable
    reference's final component (fin) or anywhere else (not fin)."""
    if isinstance(v, V.AbsVar):
        return V.AbsVar(new, v.label) if v.uid == uid and here == fin else v
    if isinstance(v, V.MutPair):
        return V.MutPair(_rename(v.cur, uid, new, fin), _rename(v.fin, uid, new, fin, True))
    return V.map_children(v, lambda k: _rename(k, uid, new, fin))


def _renamed(cfg, uid, new, fin):
    stack = tuple(dataclasses.replace(e, frame={x: _rename(v, uid, new, fin) for x, v in e.frame.items()})
                  for e in cfg.stack)
    return aos.AbsConfig(stack, cfg.lft)


def _guard_verdicts(prog, typing, cfg):
    """safe_abstract on cfg and on pairing and lifetime faults injected
    into it: a prophecy's take renamed away (a dropped take), one
    prophecy's give moved onto another (a double give), and a global
    lifetime that no frame accounts for."""
    faults = [cfg, aos.AbsConfig(cfg.stack, cfg.lft.add("z@99", frozenset()))]
    uids = sorted(absvar_uids(cfg))
    if uids:
        faults.append(_renamed(cfg, uids[0], 10_000, fin=False))
    if len(uids) > 1:
        faults.append(_renamed(cfg, uids[1], uids[0], fin=True))
    return [list(aos.safe_abstract(typing, c)) for c in faults]


# SHA-256 per program over safe_abstract's (ok, diags) on every step of
# three AOS runs (fuel 300, rand_range (-8, 8), inputs and seeds drawn
# from random.Random(zlib.crc32(name))), with the faults of
# _guard_verdicts injected into each step.
PINNED_SAFETY = {
    "inc_max": (60, "78ca4d67145827c97f5621c77595f50e380cce6ff8b196f49288a5a9d77f5cbb"),
    "inc_max_unsafe": (60, "2fbbc851a57500454e79e243a118a47a9cb417c8ce72afba568788164bbd70be"),
    "just_rec": (219, "c308763f3b8728274ab76d719850ab1f07436a87a8e0ce52483a4a4baeae07bb"),
    "just_rec_unsafe": (72, "e556e373b86052c0bd2aeba1b1fcf225d0d5dead686792e8fd8a4b08ee46cc1c"),
    "linger_dec": (241, "07bb75b381f23f78c8a3af3e912918dd818483a5949db8305fa114aa4e93160c"),
    "linger_dec_unsafe": (101, "9e3091cddc12d338b108efdf9523610ab22c986a97e0db844cc2673409c581bc"),
    "inc_some": (903, "d7e114e08c29ae45bb34e9031619c1af61684f2053a762e4b02c2f2970240379"),
    "inc_some_unsafe": (721, "441608e8c7bcc00abf9183f5ebf04fbb6dd8c8443bd9f7b67839791f22267ac8"),
    "inc_some_t": (627, "203a1853c8d870b9dc0d05f597548d81d43d39854109dff19754d2f4254db8ed"),
    "inc_some_t_unsafe": (681, "8e50ecc4a1705fb1f142b5e7715ebd64b24961c4309c65becdad1e7dcfd9b985"),
    "swap_mm": (72, "6f0c57c4d89819ad0ae423dd3c2b9c9b360ebb6c18737df358fefd33ddf14af5"),
    "dup_imm": (39, "5ac1efeb910b25bf3779ffdf6841025abda540ebd72d22e848b55d5ea78d860f"),
    "read_thru": (30, "5805a5534cdd80934cb6959bac0960f61507298b13b235a468f7b6eb90c04f28"),
    "read_imm": (60, "42303db08081b63130651e22a5cd994787a2ba1216fc51e6a2a49f1e5c0971a8"),
    "pair_mut": (39, "f779f605aab3245d06b63ab2050faffeea91da6809b633c54d5ef98dd89ca4bd"),
    "build_and_sum": (117, "fc4ee5f8e2d9a4442b9e09dfb1f2d6ea7ff6b142d7621b5393aa4a1e259a2cf7"),
}


def test_safety_verdicts_pinned():
    got = {}
    for name, prog, fn in _guard_programs():
        typing = typeck.type_program(prog)
        rng = random.Random(zlib.crc32(name.encode()))
        blob, steps = [], 0
        for _ in range(3):
            inputs = corpus.random_inputs(prog, fn, rng, GUARD_SPEC)
            seed = rng.randrange(2 ** 31)
            out = aos.run(prog, fn, inputs, seed=seed, fuel=300, typing=typing, rand_range=(-8, 8))
            for cfg in out.trace:
                assert aos.safe_abstract(typing, cfg) == (True, [])
                # a shape fault: the top frame's first variable holds a bare int
                top = cfg.top
                if top.frame:
                    bad = dataclasses.replace(top, frame={**top.frame, min(top.frame): 0})
                    bad_cfg = aos.AbsConfig((bad,) + cfg.stack[1:], cfg.lft)
                    assert aos.safe_abstract(typing, bad_cfg)[0] is False
                blob.append(_guard_verdicts(prog, typing, cfg))
                steps += 1
        got[name] = (steps, hashlib.sha256(json.dumps(blob).encode()).hexdigest())
    assert got == PINNED_SAFETY


def _inc_max_l3(inc_max_setup):
    prog, typing = inc_max_setup
    return run_to(prog, typing, "inc_max", [V.Box(4), V.Box(3)], "L3")


def _top_frame(cfg, **changes):
    top = cfg.top
    return aos.AbsConfig((dataclasses.replace(top, frame={**top.frame, **changes}),) + cfg.stack[1:],
                         cfg.lft)


def test_pairing_and_lifetime_faults_pinned(inc_max_setup):
    prog, typing = inc_max_setup
    cfg = _inc_max_l3(inc_max_setup)
    ma, mb = cfg.top.frame["ma"], cfg.top.frame["mb"]
    # the double give of test_lockstep_lists_each_pairing_diagnostic_once
    double_give = _top_frame(cfg, mb=V.MutPair(mb.cur, ma.fin))
    dropped_take = _top_frame(cfg, oa=V.Box(4))
    lft = cfg.lft
    extra_lifetime = aos.AbsConfig(cfg.stack, lft.add("z@99", frozenset()))
    lost_lifetime = aos.AbsConfig(cfg.stack, lft.remove(min(lft.carrier)))
    mistagged = aos.AbsConfig(
        (dataclasses.replace(cfg.top, theta={k: "x@7" for k in cfg.top.theta}),) + cfg.stack[1:], lft)
    got = [aos.safe_abstract(typing, c)
           for c in (double_give, dropped_take, extra_lifetime, lost_lifetime, mistagged)]
    assert got == [
        (False, ["abs var 0: 2 gives, 1 takes", "abs var 1: 0 gives, 1 takes"]),
        (False, ["abs var 0: 1 gives, 0 takes"]),
        (False, ["global context has 2 lifetimes, frames account for 1"]),
        (False, ["abs var 0: give lifetime a@0 not before take a@0",
                 "abs var 1: give lifetime a@0 not before take a@0",
                 "frame 0: tag a@0 not in global context",
                 "frame 0: order of 'a,'a disagrees with global",
                 "global context has 0 lifetimes, frames account for 1"]),
        (False, ["abs var 0: give lifetime x@7 not before take x@7",
                 "abs var 1: give lifetime x@7 not before take x@7",
                 "frame 0: tag x@7 not in global context",
                 "frame 0: order of 'a,'a disagrees with global"]),
    ]


def _shape_faults(inc_max_setup):
    """Shape faults injected into inc_max:L3 (oa and ob frozen lenders,
    ma and mb their borrowers) and into inc_some's entry (oxs a list)."""
    cfg = _inc_max_l3(inc_max_setup)
    ma = cfg.top.frame["ma"]
    some = corpus.load("inc_some")
    entry = aos.initial_config(some, "inc_some", [V.Box(mklist(1, 2))])
    return [
        (cfg, _top_frame(cfg, ob=3)),
        (cfg, _top_frame(cfg, ma=V.Box(4))),
        (cfg, _top_frame(cfg, ma=V.MutPair(4, 0))),
        (cfg, _top_frame(cfg, ma=V.MutPair(V.AbsVar(5, "x◦"), ma.fin))),
        (cfg, _top_frame(cfg, zz=V.Box(1))),
        (cfg, aos.AbsConfig((dataclasses.replace(cfg.top, theta={}),), cfg.lft)),
        (entry, _top_frame(entry, oxs=V.Box(5))),
        (entry, _top_frame(entry, oxs=V.Box(V.Inj(0, 5)))),
        (entry, _top_frame(entry, oxs=V.Box(V.Inj(1, 7)))),
        (entry, _top_frame(entry, oxs=V.Box(V.Inj(0, V.Pair(V.Box(1), V.Box(mklist())))))),
    ]


def test_shape_faults_rejected(inc_max_setup):
    _, typing = inc_max_setup
    some = corpus.load("inc_some")
    typings = {"inc_max": inc_max_setup, "inc_some": (some, typeck.type_program(some))}
    for good, bad in _shape_faults(inc_max_setup):
        prog, typing = typings[good.top.fn]
        assert aos.safe_abstract(typing, good) == (True, [])
        assert aos.safe_abstract(typing, bad)[0] is False


def test_shape_fault_texts_pinned(inc_max_setup):
    # the texts of the give/take walk without a heap: as on the heap
    # side, less the address
    some = corpus.load("inc_some")
    typings = {"inc_max": inc_max_setup, "inc_some": (some, typeck.type_program(some))}
    got = [aos.safe_abstract(typings[good.top.fn][1], bad) for good, bad in _shape_faults(inc_max_setup)]
    assert got == [(False, [d]) for d in [
        "expected box, abstract side has 3",
        "expected mut pair, abstract side has box(4)",
        "hot mut without prophecy on the abstract side",
        "abstract variable x◦ in an active position",
        "frame 0: abstract side has variables ['zz'] outside the context",
        "frozen lifetime 'a not in frame context",
        "sum position vs 5",
        "pair position vs 5",
        "unit position vs 7",
        "int position vs box(1)",
    ]]
