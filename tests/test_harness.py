import copy
import dataclasses
import hashlib
import itertools
import json
import pickle
import random
import zlib
from collections import Counter

import pytest

from corhorn import aos, corpus, cos, harness, logic as L, sldc, syntax as S, typeck, values as V
from corhorn.cos import Alloc

from helpers import drop_swap_exchange, fresh_copy, mklist, stuck_at_swap


@pytest.fixture(scope="module")
def inc_max_setup():
    prog = corpus.load("inc_max")
    return prog, typeck.type_program(prog)


# -- extended readout -----------------------------------------------------------


INC_MAX_IN = [V.Box(4), V.Box(3)]
INC_SOME_IN = [V.Box(mklist(1, 2))]  # heap: 100 tag, 101 1, 102 → 103 tag, 104 2, 105 → 106 nil, 107-108 pad


def _trace_pair(name, inputs, step):
    """The program, its typing and the heap and prophecy configurations
    after `step` steps of `name` on inputs."""
    prog = corpus.load(name)
    typing = typeck.type_program(prog)
    c_out = cos.run(prog, name, inputs, typing=typing)
    a_out = aos.run(prog, name, inputs, typing=typing)
    return prog, typing, c_out.trace[step], a_out.trace[step]


def _with_frame(acfg, i, **fields):
    stack = list(acfg.stack)
    stack[i] = dataclasses.replace(stack[i], **fields)
    return aos.AbsConfig(tuple(stack), acfg.lft)


def _guide_frame(acfg, i, **changes):
    """acfg with frame i's variables updated; a None value drops one."""
    frame = {x: v for x, v in {**acfg.stack[i].frame, **changes}.items() if v is not None}
    return _with_frame(acfg, i, frame=frame)


def _heap_cell(cfg, addr, n):
    return cos.CosConfig(cfg.stack, {**cfg.heap, addr: n})


def test_entry_readout_is_abs_free(inc_max_setup):
    prog, typing = inc_max_setup
    cfg = cos.initial_config(prog, "inc_max", [V.Box(4), V.Box(3)], Alloc())
    acfg = aos.initial_config(prog, "inc_max", [V.Box(4), V.Box(3)])
    walk = aos.walk_stack(typing, acfg, cfg)
    summary, footprint, diags = walk.summary, walk.footprint, walk.diags
    assert not diags
    assert not summary
    marks = {m[0] for m in footprint}
    assert marks == {"hot"}


def test_readout_reconstructs_borrows():
    _, typing, cfg, acfg = _trace_pair("inc_max", INC_MAX_IN, 3)  # inc_max:L3
    walk = aos.walk_stack(typing, acfg, cfg)
    summary, footprint, diags = walk.summary, walk.footprint, walk.diags
    assert not diags
    # each mutable borrow gives its prophecy, and its frozen lender takes
    # it, at the borrowed address
    pairs = {(type(k).__name__, k.uid, k.addr) for k in summary}
    a, b = acfg.top.frame["ma"].fin.uid, acfg.top.frame["mb"].fin.uid
    assert pairs == {("Give", a, 100), ("Take", a, 100), ("Give", b, 101), ("Take", b, 101)}
    assert not aos.safe_summary(acfg.lft, summary) + aos.safe_footprint(acfg.lft, footprint)


def test_readout_corrupted_heap():
    _, typing, cfg, acfg = _trace_pair("inc_max", INC_MAX_IN, 5)  # take_max:L1
    heap = dict(cfg.heap)
    heap[cfg.top.frame["ord"]] = 7  # a sum tag outside {0, 1}
    broken = cos.CosConfig(cfg.stack, heap)
    diags = aos.walk_stack(typing, acfg, broken).diags
    assert any("tag" in d for d in diags)


def test_match_against_aos_trace(inc_max_setup):
    # the concrete execution reads out exactly as the prophecy execution
    prog, typing = inc_max_setup
    c_out = cos.run(prog, "inc_max", [V.Box(4), V.Box(3)], typing=typing)
    a_out = aos.run(prog, "inc_max", [V.Box(4), V.Box(3)], typing=typing)
    assert len(c_out.trace) == len(a_out.trace)
    for c, a in zip(c_out.trace, a_out.trace):
        ok, diags = harness.safe_link(typing, c, a)
        assert ok, (c.top.label, diags)


def test_safe_link_rejects_mismatched_label(inc_max_setup):
    prog, typing = inc_max_setup
    c_out = cos.run(prog, "inc_max", [V.Box(4), V.Box(3)], typing=typing)
    a_out = aos.run(prog, "inc_max", [V.Box(4), V.Box(3)], typing=typing)
    ok, diags = harness.safe_link(typing, c_out.trace[0], a_out.trace[1])
    assert not ok


def test_safe_link_rejects_wrong_value(inc_max_setup):
    prog, typing = inc_max_setup
    c_out = cos.run(prog, "inc_max", [V.Box(4), V.Box(3)], typing=typing)
    a_out = aos.run(prog, "inc_max", [V.Box(4), V.Box(3)], typing=typing)
    a0 = a_out.trace[0]
    frame = dict(a0.top.frame)
    frame["oa"] = V.Box(5)
    bad = aos.AbsConfig(
        (aos.AbsFrameEntry(a0.top.fn, a0.top.label, a0.top.theta, None, frame),), a0.lft
    )
    ok, diags = harness.safe_link(typing, c_out.trace[0], bad)
    assert not ok


def test_duplicate_hot_footprint_unsafe(inc_max_setup):
    prog, typing = inc_max_setup
    lctx = typeck.LftCtx.empty()
    footprint = {("hot", None, 100): 2}
    from collections import Counter

    diags = aos.safe_summary(lctx, Counter()) + aos.safe_footprint(lctx, Counter(footprint))
    assert diags


def test_lone_cold_footprint_mark_unsafe():
    lctx = typeck.LftCtx.make({"a@0"}, set())
    assert aos.safe_footprint(lctx, Counter({("cold", "a@0", 100): 1, ("hot", None, 101): 1})) == [
        "address 100: access marks [\"('cold', 'a@0', 100)\"]"
    ]


def test_give_and_take_at_different_addresses_unsafe():
    lctx = typeck.LftCtx.make({"a@0"}, set())
    ty = S.IntT()
    summary = Counter({aos.Give("a@0", 7, ty, addr=100): 1, aos.Take("a@0", 7, ty, addr=101): 1})
    assert aos.safe_summary(lctx, summary) + aos.safe_footprint(lctx, Counter()) == [
        "abs var 7: give at 100, take at 101"
    ]
    same = Counter({aos.Give("a@0", 7, ty, addr=100): 1, aos.Take("a@0", 7, ty, addr=100): 1})
    assert aos.safe_summary(lctx, same) + aos.safe_footprint(lctx, Counter()) == []


def test_frozen_resolved_owner_reads_out():
    # after `immut`, the frozen lender holds a concrete value while an
    # immutable reference reads the same cells: frozen-hot plus cold marks
    prog = corpus.load("inc_some")
    typing = typeck.type_program(prog)
    c_out = cos.run(prog, "inc_some", [V.Box(mklist(1, 2))], seed=0, typing=typing)
    a_out = aos.run(prog, "inc_some", [V.Box(mklist(1, 2))], seed=0, typing=typing)
    by_label = {(c.top.fn, c.top.label): i for i, c in enumerate(c_out.trace)}
    i = by_label[("inc_some", "L3")]  # ms0 is an immut borrow, oxs frozen
    cfg, acfg = c_out.trace[i], a_out.trace[i]
    ok, diags = harness.safe_link(typing, cfg, acfg)
    assert ok, diags
    footprint = aos.walk_stack(typing, acfg, cfg).footprint
    kinds = {m[0] for m in footprint}
    assert "cold" in kinds
    assert any(m[0] == "hot" and m[1] is not None for m in footprint)


@pytest.mark.parametrize(
    "name, inputs, step, corrupt, expected",
    [
        ("inc_max", INC_MAX_IN, 4, lambda c, a: (c, aos.AbsConfig(a.stack[:1], a.lft)),
         (False, ["stack depth 2 vs abstract 1"])),
        ("inc_max", INC_MAX_IN, 4, lambda c, a: (c, _with_frame(a, 1, label="L3")),
         (False, ["frame 1: program point mismatch"])),
        ("inc_max", INC_MAX_IN, 3, lambda c, a: (c, _guide_frame(a, 0, mb=None)),
         (False, ["frame 0: variable mb missing on the abstract side"])),
        ("inc_max", INC_MAX_IN, 0, lambda c, a: (c, _guide_frame(a, 0, oa=V.Box(5))),
         (False, ["cell 100 holds 4, abstract side has 5"])),
        ("inc_max", INC_MAX_IN, 0, lambda c, a: (c, _guide_frame(a, 0, ob=3)),
         (False, ["expected box at 101, abstract side has 3"])),
        ("inc_max", INC_MAX_IN, 5, lambda c, a: (_heap_cell(c, 102, 7), a),
         (False, ["bad sum tag 7 at 102"])),
        ("inc_some", INC_SOME_IN, 0,
         lambda c, a: (c, _guide_frame(a, 0, oxs=V.Box(V.Inj(1, a.top.frame["oxs"].inner.payload)))),
         (False, ["tag 0 at 100 vs abstract inj1 (1, box(inj0 (2, box(inj1 ()))))"])),
        ("inc_some", INC_SOME_IN, 0, lambda c, a: (_heap_cell(c, 108, 3), a),
         (False, ["bad padding cell 108"])),
        # a product reads both halves even when the first one fails
        ("inc_some", INC_SOME_IN, 0, lambda c, a: (c, _guide_frame(a, 0, oxs=V.Box(mklist(9, 8)))),
         (False, ["cell 101 holds 1, abstract side has 9", "cell 104 holds 2, abstract side has 8"])),
    ],
    ids=["truncated_stack", "mismatched_label", "missing_variable", "wrong_int", "int_for_box",
         "sum_tag_7", "flipped_inj", "nonzero_padding", "product_both_halves"],
)
def test_guided_readout_diagnostics_pinned(name, inputs, step, corrupt, expected):
    prog, typing, cfg, acfg = _trace_pair(name, inputs, step)
    assert harness.safe_link(typing, cfg, acfg) == (True, [])
    cfg, acfg = corrupt(cfg, acfg)
    ok, diags = harness.safe_link(typing, cfg, acfg)
    assert (ok, diags) == expected


def test_safe_link_rejects_extra_abstract_variable():
    prog, typing, cfg, acfg = _trace_pair("inc_max", INC_MAX_IN, 3)  # inc_max:L3
    bad = _guide_frame(acfg, 0, zz=V.Box(1))
    assert harness.safe_link(typing, cfg, bad) == (
        False, ["frame 0: abstract side has variables ['zz'] outside the context"])


def test_hot_mut_without_prophecy_is_a_diagnostic():
    prog, typing, cfg, acfg = _trace_pair("inc_max", INC_MAX_IN, 3)  # inc_max:L3
    ma = acfg.top.frame["ma"]
    bad = _guide_frame(acfg, 0, ma=V.MutPair(ma.cur, 0))
    assert harness.safe_link(typing, cfg, bad) == (
        False, ["hot mut at 100 without prophecy on the abstract side"])


def test_active_abstract_variable_same_diagnostic_on_both_sides():
    # oa is an active owner at inc_max's entry: no prophecy may sit there
    prog, typing, cfg, acfg = _trace_pair("inc_max", INC_MAX_IN, 0)
    bad = _guide_frame(acfg, 0, oa=V.Box(V.AbsVar(9, "x◦")))
    expected = (False, ["abstract variable x◦ in an active position"])
    assert harness.safe_link(typing, cfg, bad) == expected
    assert aos.safe_abstract(typing, bad) == expected


def test_missing_frozen_lifetime_same_diagnostic_on_both_sides():
    # at inc_max:L3, oa and ob are frozen at 'a, which theta must tag
    prog, typing, cfg, acfg = _trace_pair("inc_max", INC_MAX_IN, 3)
    bad = _with_frame(acfg, 0, theta={})
    expected = (False, ["frozen lifetime 'a not in frame context"])
    assert harness.safe_link(typing, cfg, bad) == expected
    assert aos.safe_abstract(typing, bad) == expected


@pytest.mark.parametrize("changes, text", [
    ({"mb": None}, "frame 0: variable mb missing on the abstract side"),
    ({"zz": V.Box(1)}, "frame 0: abstract side has variables ['zz'] outside the context"),
], ids=["missing", "extra"])
def test_abstract_frame_domain_same_diagnostic_on_both_sides(changes, text):
    prog, typing, cfg, acfg = _trace_pair("inc_max", INC_MAX_IN, 3)  # inc_max:L3
    bad = _guide_frame(acfg, 0, **changes)
    assert harness.safe_link(typing, cfg, bad) == (False, [text])
    assert aos.safe_abstract(typing, bad) == (False, [text])


# -- lockstep ---------------------------------------------------------------------


def test_lockstep_cos_aos_inc_max(inc_max_setup):
    prog, _ = inc_max_setup
    rep = harness.lockstep_cos_aos(prog, "inc_max", [V.Box(4), V.Box(3)])
    assert rep.ok and rep.final_value == "box(inj1 ())"
    assert all(s.linked for s in rep.steps)


def test_lockstep_checks_lifetime_safety_once_per_step(inc_max_setup, monkeypatch):
    prog, typing = inc_max_setup
    calls = []

    def unsafe(*args):
        calls.append(args)
        return ["lt"]

    monkeypatch.setattr(aos, "lifetime_safe", unsafe)
    rep = harness.lockstep_cos_aos(prog, "inc_max", [V.Box(4), V.Box(3)], typing=typing)
    assert not rep.ok and rep.detail == "link failed at step 0 (inc_max:entry)"
    assert [s.diagnostics for s in rep.steps] == [["lt"]]
    assert len(calls) == 1


def test_lockstep_never_calls_safe_abstract(inc_max_setup, monkeypatch):
    prog, typing = inc_max_setup
    calls = []
    real = aos.safe_abstract

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(aos, "safe_abstract", counting)
    rep = harness.lockstep_cos_aos(prog, "inc_max", [V.Box(4), V.Box(3)], typing=typing)
    assert rep.ok and calls == []


def test_lockstep_lists_each_pairing_diagnostic_once(inc_max_setup, monkeypatch):
    # the prophecy interpreter hands ma's prophecy to mb as well: a double give
    prog, typing = inc_max_setup
    real_step = aos._step

    def double_give(prog_, typing_, cfg, rng, supply, rand_range):
        out = real_step(prog_, typing_, cfg, rng, supply, rand_range)
        stmt = prog_.fn(cfg.top.fn).body[cfg.top.label]
        if isinstance(stmt, S.StmtInstr) and isinstance(stmt.instr, S.MutBor) and stmt.instr.y == "mb":
            top = out.config.top
            frame = {**top.frame, "mb": V.MutPair(top.frame["mb"].cur, top.frame["ma"].fin)}
            entry = dataclasses.replace(top, frame=frame)
            return aos.Next(aos.AbsConfig((entry,) + out.config.stack[1:], out.config.lft))
        return out

    monkeypatch.setattr(aos, "_step", double_give)
    rep = harness.lockstep_cos_aos(prog, "inc_max", [V.Box(4), V.Box(3)], typing=typing)
    assert rep.detail == "link failed at step 3 (inc_max:L3)"
    assert rep.steps[-1].diagnostics == ["abs var 0: 2 gives, 1 takes", "abs var 1: 0 gives, 1 takes"]


def test_lockstep_aos_sldc_inc_max(inc_max_setup):
    prog, _ = inc_max_setup
    rep = harness.lockstep_aos_sldc(prog, "inc_max", [V.Box(4), V.Box(3)])
    assert rep.ok and rep.final_value == "box(inj1 ())"


def test_lockstep_just_rec_many_seeds():
    prog = corpus.load("just_rec")
    typing = typeck.type_program(prog)
    for seed in range(100):
        rep = harness.lockstep_cos_aos(
            prog, "just_rec_main", [V.Box(5)], seed=seed, fuel=400, typing=typing,
            rand_range=(-8, 8),
        )
        assert rep.ok, (seed, rep.detail)


def test_mutation_broken_aos_rule_detected(inc_max_setup, monkeypatch):
    # sabotage the prophecy interpreter's swap: the heap side must notice
    prog, typing = inc_max_setup
    real_step = aos._step

    def broken(prog_, typing_, cfg, rng, supply, rand_range):
        from corhorn import syntax as S

        top = cfg.top
        stmt = prog_.fn(top.fn).body[top.label]
        if isinstance(stmt, S.StmtInstr) and isinstance(stmt.instr, S.Swap):
            # skip the exchange entirely
            entry = aos.AbsFrameEntry(top.fn, stmt.goto, top.theta, top.recv, dict(top.frame))
            return aos.Next(aos.AbsConfig((entry,) + cfg.stack[1:], cfg.lft))
        return real_step(prog_, typing_, cfg, rng, supply, rand_range)

    monkeypatch.setattr(aos, "_step", broken)
    rep = harness.lockstep_cos_aos(prog, "inc_max", [V.Box(4), V.Box(3)])
    assert not rep.ok
    swap_step = next(i for i, s in enumerate(rep.steps) if s.point == "inc_max:L7")
    assert rep.steps[-1].index == swap_step + 1  # first divergence right after


# -- incremental lockstep ---------------------------------------------------------


def test_lockstep_checks_link_and_render_once_per_step(inc_max_setup, monkeypatch):
    prog, typing = inc_max_setup
    calls = Counter()
    for name in ("safe_link", "resolutive_of"):
        def counted(*args, _name=name, _real=getattr(harness, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(harness, name, counted)
    r1 = harness.lockstep_cos_aos(prog, "inc_max", [V.Box(4), V.Box(3)], typing=typing)
    r2 = harness.lockstep_aos_sldc(prog, "inc_max", [V.Box(4), V.Box(3)], typing=typing)
    assert r1.ok and r2.ok
    assert calls == {"safe_link": len(r1.steps), "resolutive_of": len(r2.steps)}


def _record_free(acfg):
    """acfg built of new entries and pre-values, none of which holds a
    record yet."""
    return aos.AbsConfig(tuple(dataclasses.replace(e, frame={x: fresh_copy(v) for x, v in e.frame.items()})
                               for e in acfg.stack), acfg.lft)


def test_incremental_lockstep_agrees_with_full_checks(monkeypatch):
    """At every step of both lockstep checks, on a few criterion-6 draws
    of each corpus entry, the stack walk, the rendering and the
    refinement verdicts with the records the entries hold equal those
    computed on record-free copies."""
    real_walk, real_render, real_refines = aos.walk_stack, harness.resolutive_of, harness._config_refines
    reused = Counter()

    def walk_stack(typing, acfg, cfg=None):
        prev = [e._walk for e in acfg.stack]
        walk, full = real_walk(typing, acfg, cfg), real_walk(typing, _record_free(acfg), cfg)
        assert (list(walk.summary.items()), list(walk.footprint.items()), walk.diags) == (
            list(full.summary.items()), list(full.footprint.items()), full.diags)
        reused["frames"] += sum(p is not None and e._walk is p for e, p in zip(acfg.stack, prev))
        return walk

    def resolutive_of(prog, typing, acfg):
        prev = [e._rendered for e in acfg.stack]
        k, full = real_render(prog, typing, acfg), real_render(prog, typing, _record_free(acfg))
        assert (k.stack, k.result, list(k.sorts.items())) == (
            full.stack, full.result, list(full.sorts.items()))
        reused["atoms"] += sum(p is not None and e._rendered is p for e, p in zip(acfg.stack, prev))
        return k

    def config_refines(cand, target):
        # built apart, so no candidate atom or argument is the target's own
        fresh = sldc.ResConfig(tuple(L.Atom(a.pred, tuple(map(fresh_copy, a.args)))
                                     for a in target.stack),
                               target.result, target.sorts)
        ok = real_refines(cand, target)
        assert ok == real_refines(cand, fresh)
        reused["shared atoms"] += sum(a is b for a, b in zip(cand.stack, target.stack))
        reused["shared arguments"] += sum(
            x is y and bool(V.children(x))
            for a, b in zip(cand.stack, target.stack) if a is not b
            for x, y in zip(a.args, b.args))
        return ok

    monkeypatch.setattr(aos, "walk_stack", walk_stack)
    monkeypatch.setattr(harness, "resolutive_of", resolutive_of)
    monkeypatch.setattr(harness, "_config_refines", config_refines)
    for e in corpus.CORPUS:
        prog = corpus.load(e.name)
        typing = typeck.type_program(prog)
        rng = random.Random(zlib.crc32(e.name.encode()))
        for _ in range(3):
            inputs = corpus.random_inputs(prog, e.entry_fn, rng, L.SampleSpec(-4, 4, max_depth=3))
            kw = dict(seed=rng.randrange(2 ** 31), fuel=250, typing=typing, rand_range=(-8, 8))
            assert harness.lockstep_cos_aos(prog, e.entry_fn, inputs, **kw).ok
            assert harness.lockstep_aos_sldc(prog, e.entry_fn, inputs, **kw).ok
    assert min(reused.values()) > 100, reused


def test_walk_memo_rereads_a_changed_lower_frame_cell():
    # a step that changes a cell only a lower frame read: that frame's
    # record is not reused, and the diagnostic is the walk's on
    # record-free copies
    prog = corpus.load("inc_some")
    typing = typeck.type_program(prog)
    c_out = cos.run(prog, "inc_some", INC_SOME_IN, typing=typing)
    a_out = aos.run(prog, "inc_some", INC_SOME_IN, typing=typing)
    for c, a in zip(c_out.trace, a_out.trace):
        prev = [e._walk for e in a.stack]
        assert harness.safe_link(typing, c, a) == (True, [])
        recs = [e._walk for e in a.stack]
        kept = [r is p for r, p in zip(recs, prev)]
        only = ({x for r, k in zip(recs, kept) if k for x in r[5]}
                - {x for r, k in zip(recs, kept) if not k for x in r[5]})
        if only:
            break
    addr = min(only)
    bad = _heap_cell(c, addr, c.heap[addr] + 7)
    full = harness.safe_link(typing, bad, _record_free(a))
    assert not full[0] and full[1]
    assert harness.safe_link(typing, bad, a) == full


def test_walk_memo_keeps_lower_frames_across_calls_and_returns():
    # a call or a return shifts every lower frame by one; a lower entry
    # whose record pairs it with the same heap entry, and whose read
    # cells are unchanged, is not walked again
    kept = Counter()
    for name, seed in itertools.product(("just_rec", "linger_dec", "inc_some", "inc_some_t"), range(3)):
        e = corpus.entry(name)
        prog = corpus.load(name)
        typing = typeck.type_program(prog)
        inputs = corpus.random_inputs(prog, e.entry_fn, random.Random(seed), L.SampleSpec(-4, 4, max_depth=3))
        kw = dict(seed=seed, fuel=250, typing=typing, rand_range=(-8, 8))
        c_out, a_out = cos.run(prog, e.entry_fn, inputs, **kw), aos.run(prog, e.entry_fn, inputs, **kw)
        depth = None
        for c, a in zip(c_out.trace, a_out.trace):
            prev = [e._walk for e in a.stack]
            assert not aos.walk_stack(typing, a, c).diags
            if depth is not None and depth != len(a.stack):
                kind = "call" if depth < len(a.stack) else "return"
                for i in range(1, len(a.stack)):
                    rec = prev[i]
                    if (rec is not None and rec[0] is typing and rec[1] is c.stack[i]
                            and rec[5].items() <= c.heap.items()):
                        assert a.stack[i]._walk is rec, (name, kind, i)
                        kept[kind] += 1
            depth = len(a.stack)
    assert min(kept["call"], kept["return"]) > 20, kept


def _entries_and_nodes(acfg):
    """acfg's entries, then the compound nodes of their pre-values."""
    def nodes(v):
        return [v, *(n for k in V.children(v) for n in nodes(k))] if V.children(v) else []

    return [*acfg.stack, *(n for e in acfg.stack for v in e.frame.values() for n in nodes(v))]


def test_cached_records_are_invisible():
    # the records each step leaves on entries (`_walk`, `_rendered`) and
    # on rendered pre-values (`_term`) are left out of equality, hashing,
    # printing, copying and pickling, like the facts cached on terms
    termed = 0
    for name, inputs in (("inc_max", INC_MAX_IN), ("inc_some", INC_SOME_IN)):
        prog = corpus.load(name)
        typing = typeck.type_program(prog)
        c_out = cos.run(prog, name, inputs, typing=typing)
        a_out = aos.run(prog, name, inputs, typing=typing)
        for c, a in zip(c_out.trace, a_out.trace):
            fresh = _record_free(a)
            objs = _entries_and_nodes(fresh)
            before = [(hash(x), repr(x), pickle.dumps(x)) for x in objs]
            assert harness.safe_link(typing, c, fresh) == (True, [])
            harness.resolutive_of(prog, typing, fresh)
            assert [(hash(x), repr(x), pickle.dumps(x)) for x in objs] == before
            assert all("_walk" in vars(e) and "_rendered" in vars(e) for e in fresh.stack)
            for n in objs[len(fresh.stack):]:
                assert ("_term" in vars(n)) is not V.is_pattern(n)
                termed += "_term" in vars(n)
            for x, y in zip(objs, _entries_and_nodes(a), strict=True):
                assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
                for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
                    assert twin == y and hash(twin) == hash(y) and repr(twin) == repr(y)
                    assert vars(twin) == {f.name: getattr(twin, f.name) for f in dataclasses.fields(x)}
        # a rendered ground input argument is the input object itself
        (atom,) = harness.resolutive_of(prog, typing, aos.initial_config(prog, name, inputs)).stack
        params = [x for x, _ in prog.fn(name).params]
        args = dict(zip(sorted(params), atom.args))
        assert all(args[x] is v for x, v in zip(params, inputs))
    assert termed > 10


def test_records_are_not_reused_outside_their_key():
    # an entry's walk record is reused only with the typing and the
    # paired heap entry it was made with: walked against a heap entry
    # whose variables swap addresses, or under a second typing, every
    # configuration gives exactly the diagnostics of its record-free copy
    faults = Counter()
    for name, inputs in (("inc_max", INC_MAX_IN), ("inc_some", INC_SOME_IN)):
        prog = corpus.load(name)
        typing = typeck.type_program(prog)
        # a second typing of the program, with each context's first
        # variable frozen at a lifetime that no frame holds
        other = typeck.type_program(prog)
        for key, ctx in other.contexts.items():
            if ctx.gamma:
                x = min(ctx.gamma)
                other.contexts[key] = ctx.with_gamma({**ctx.gamma, x: typeck.VarInfo(ctx.gamma[x].ty, "zz")})
        c_out = cos.run(prog, name, inputs, typing=typing)
        a_out = aos.run(prog, name, inputs, typing=typing)
        for c, a in zip(c_out.trace, a_out.trace):
            assert harness.safe_link(typing, c, a) == (True, [])
            got = harness.safe_link(other, c, a)
            assert got == harness.safe_link(other, c, _record_free(a))
            faults["typing"] += not got[0]
            if len(c.top.frame) < 2:
                continue
            x, y = sorted(c.top.frame)[:2]
            top = dataclasses.replace(c.top, frame={**c.top.frame, x: c.top.frame[y], y: c.top.frame[x]})
            swapped = cos.CosConfig((top, *c.stack[1:]), c.heap)
            got = harness.safe_link(typing, swapped, a)
            assert got == harness.safe_link(typing, swapped, _record_free(a))
            faults["swap"] += not got[0]
    assert min(faults["typing"], faults["swap"]) > 10, faults


def test_config_refines_binds_the_variables_of_a_shared_atom():
    # an atom that is the target's own matches itself only if its
    # variables are still free or bound to themselves
    shared = L.Atom("q", (V.Var("x"), 1))
    cand = sldc.ResConfig((L.Atom("p", (V.Var("x"),)), shared), V.Var("r"))
    for head, ok in ((V.Var("x"), True), (V.Var("y"), False), (5, False)):
        target = sldc.ResConfig((L.Atom("p", (head,)), shared), V.Var("r"))
        copy = sldc.ResConfig((target.stack[0], L.Atom("q", shared.args)), V.Var("r"))
        assert harness._config_refines(cand, target) is harness._config_refines(cand, copy) is ok


def test_oracle_diff_never_returning():
    # a function that never returns produces no checks and no misses
    prog = corpus.load("inc_some")
    rep = harness.oracle_diff(
        prog, "inc_some", [(V.Box(mklist()),)], seeds=(0,), depth=30, fuel=200
    )
    assert rep.checked == 1 and rep.returned == 0 and rep.ok


def test_oracle_diff_counts_how_runs_end(inc_max_setup, monkeypatch):
    # runs that return no value are counted by how they end, outside to_json
    rep = harness.oracle_diff(corpus.load("inc_some"), "inc_some", [(V.Box(mklist()),)],
                              seeds=(0, 1))
    assert (rep.stuck, rep.out_of_fuel, rep.to_json()) == (
        0, 2, {"checked": 1, "returned": 0, "misses": [], "budget_flags": 0, "ok": True})
    prog, typing = inc_max_setup
    stuck_at_swap(cos, monkeypatch)
    rep = harness.oracle_diff(prog, "inc_max", [(V.Box(4), V.Box(3)), (V.Box(1), V.Box(1))],
                              seeds=(0, 1, 2), typing=typing)
    assert (rep.stuck, rep.out_of_fuel, rep.returned, rep.ok) == (6, 0, 0, True)


def test_oracle_diff_inc_max_small():
    prog = corpus.load("inc_max")
    inputs = [(V.Box(a), V.Box(b)) for a in range(-2, 3) for b in range(-2, 3)]
    rep = harness.oracle_diff(prog, "inc_max", inputs, seeds=(0,), depth=40)
    assert rep.ok and rep.returned == 25


def test_oracle_diff_detects_wrong_translation(inc_max_setup, monkeypatch):
    # sabotage resolution: claim inc_max returns false
    prog, _ = inc_max_setup
    import corhorn.sldc as sldc_mod

    real = sldc_mod.enumerate_results

    def lying(*args, **kwargs):
        out = real(*args, **kwargs)
        out.patterns = [(V.Box(V.FALSE), {})]
        return out

    monkeypatch.setattr(sldc_mod, "enumerate_results", lying)
    monkeypatch.setattr(harness.sldc, "enumerate_results", lying)
    rep = harness.oracle_diff(prog, "inc_max", [(V.Box(1), V.Box(0))], seeds=(0,))
    assert not rep.ok


def test_call_step_grows_resolution_stack(inc_max_setup):
    # a call pushes one atom: the callee entry ahead of the continuation
    prog, typing = inc_max_setup
    out = aos.run(prog, "inc_max", [V.Box(4), V.Box(3)], typing=typing)
    for prev, cur in zip(out.trace, out.trace[1:]):
        if len(cur.stack) == len(prev.stack) + 1:
            k_prev = harness.resolutive_of(prog, typing, prev)
            k_cur = harness.resolutive_of(prog, typing, cur)
            assert len(k_cur.stack) == len(k_prev.stack) + 1
            assert k_cur.stack[0].pred == "take_max!entry"
            break
    else:
        raise AssertionError("no call step found")


def test_interpreters_stay_on_typed_labels(inc_max_setup):
    # every reached program point has a statically assigned context
    prog, typing = inc_max_setup
    out = cos.run(prog, "inc_max", [V.Box(4), V.Box(3)], typing=typing)
    for cfg in out.trace:
        for e in cfg.stack:
            assert (e.fn, e.label) in typing.contexts


def test_oracle_catches_broken_translation(inc_max_setup, monkeypatch):
    # drop the swap clause's exchange: resolution then derives the wrong
    # values and the differential oracle must miss
    drop_swap_exchange(monkeypatch)
    prog, _ = inc_max_setup
    # equal inputs: without the increment landing, the final disequality
    # flips, so the heap-run value true is underivable
    rep = harness.oracle_diff(prog, "inc_max", [(V.Box(2), V.Box(2))], seeds=(0,))
    assert not rep.ok


# -- pinned interpreter and lockstep behaviour ------------------------------------

PIN_SPEC = L.SampleSpec(-4, 4, max_depth=3)
PIN_INPUTS = 5  # sampled (inputs, seed) pairs per corpus entry

# SHA-256 per corpus entry over cos.run and aos.run outcomes (status, value,
# reason, steps, leaked cells, full trace JSON; fuel 400) and both lockstep
# reports (fuel 250), with rand_range (-8, 8).
PINNED_RUN_DIGESTS = {
    "inc_max": "f7473a67f7a66a958fcf9651802501e77f3a57273e593d63cf7cea9674972bdf",
    "inc_max_unsafe": "eb28e1f7548e6d6b74dcd285eb176f592bce79ae2f06037d1fdf0aa5dbc1afa9",
    "just_rec": "4b5ae15d415bb495a1323737fa26ea7f8b6233ca246c3bd25129e96dc5b1b3a9",
    "just_rec_unsafe": "1500de2008dfb1647e6a117a781e4847a3b67d50d37a33631f3ffb060cb0c719",
    "linger_dec": "64783546b7b919609924f0710ccc500bc544ae9b99945370a7d98be217b78fc0",
    "linger_dec_unsafe": "25b85b929f149d34f14a68d46d1579c8d087db0e854cbf792448cecbb76fb5e4",
    "inc_some": "8a543fa2af3d37c936f7bd7379589344824108696693286527be30c6fac91e19",
    "inc_some_unsafe": "64fc4ba67d658192b8f61a7ee782382c0511c0db2e68bf5ef6068a5a4387e983",
    "inc_some_t": "e7ca59d0af754a800fb3b35a3b5c076824f0abbceed76cacf6c469407c0bae32",
    "inc_some_t_unsafe": "f2daf5d89dc60176bd0bc3156d696214f5c2de25aaad03338735009476b5ca5b",
}


def _outcome_json(out) -> list:
    return [out.status, None if out.value is None else V.show(out.value), out.reason,
            out.steps, list(getattr(out, "leaked", ())), [c.to_json() for c in out.trace]]


def _entry_digest(e) -> str:
    prog = corpus.load(e.name)
    typing = typeck.type_program(prog)
    rng = random.Random(zlib.crc32(e.name.encode()))
    blob = []
    for _ in range(PIN_INPUTS):
        inputs = corpus.random_inputs(prog, e.entry_fn, rng, PIN_SPEC)
        seed = rng.randrange(2 ** 31)
        kw = dict(seed=seed, typing=typing, rand_range=(-8, 8))
        blob.append([
            [V.show(v) for v in inputs], seed,
            _outcome_json(cos.run(prog, e.entry_fn, inputs, fuel=400, **kw)),
            _outcome_json(aos.run(prog, e.entry_fn, inputs, fuel=400, **kw)),
            harness.lockstep_cos_aos(prog, e.entry_fn, inputs, fuel=250, **kw).to_json(),
            harness.lockstep_aos_sldc(prog, e.entry_fn, inputs, fuel=250, **kw).to_json(),
        ])
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()


def test_runs_and_lockstep_reports_pinned():
    digests = {e.name: _entry_digest(e) for e in corpus.CORPUS}
    assert digests == PINNED_RUN_DIGESTS


def test_stuck_runs_and_lockstep_reports_pinned(inc_max_setup, monkeypatch):
    prog, typing = inc_max_setup
    inputs = [V.Box(4), V.Box(3)]
    stuck_at_swap(cos, monkeypatch)
    out = cos.run(prog, "inc_max", inputs, typing=typing)
    assert (out.status, out.value, out.reason, out.steps, len(out.trace)) == (
        "stuck", None, "sabotaged swap", 12, 13)
    assert harness.lockstep_cos_aos(prog, "inc_max", inputs, typing=typing).to_json() == {
        "ok": False, "detail": "stuck at step 12: sabotaged swap", "final_value": None,
        "steps": [], "total_steps": 13}
    monkeypatch.undo()
    stuck_at_swap(aos, monkeypatch)
    out = aos.run(prog, "inc_max", inputs, typing=typing, check_safety=True)
    assert (out.status, out.value, out.reason, out.steps, len(out.trace)) == (
        "stuck", None, "sabotaged swap", 12, 13)
    assert harness.lockstep_cos_aos(prog, "inc_max", inputs, typing=typing).to_json() == {
        "ok": False, "detail": "stuck at step 12: sabotaged swap", "final_value": None,
        "steps": [], "total_steps": 13}
    assert harness.lockstep_aos_sldc(prog, "inc_max", inputs, typing=typing).to_json() == {
        "ok": False, "detail": "interpreter stuck at step 12: sabotaged swap",
        "final_value": None, "steps": [], "total_steps": 12}
