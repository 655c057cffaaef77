import random
import zlib
from collections import Counter

import pytest

from corhorn import aos, corpus, cos, machine, parser, syntax as S, translate, typeck, values as V
from corhorn.cos import Alloc
from corhorn.logic import SampleSpec
from corhorn.machine import Final, Next, RunOutcome

from helpers import is_final, mklist, write_value
from helpers import parse_type as T


# -- readout -------------------------------------------------------------------


def test_readout_pair_of_ints():
    heap = {100: 7, 101: 5}
    v, m = cos.readout(heap, 100, T("int * int"))
    assert v == V.Pair(7, 5)
    assert sorted(m) == [100, 101]


def test_readout_unit():
    v, m = cos.readout({}, 12345, S.UNIT)
    assert v == V.UNIT and m == []


def test_readout_own_chain():
    heap = {10: 20, 20: 9}
    v, m = cos.readout(heap, 10, T("own int"))
    assert v == V.Box(9)
    assert sorted(m) == [10, 20]


def test_readout_sum_checks_padding():
    # bool + (int * int): payload sizes 1 vs 2
    t = T("bool + int * int")
    heap = {50: 0, 51: 1, 52: 0}  # inj0 true, one zero pad cell
    v, m = cos.readout(heap, 50, t)
    assert v == V.Inj(0, V.TRUE)
    assert sorted(m) == [50, 51, 52]
    heap[52] = 3
    with pytest.raises(cos.ReadoutError) as e:
        cos.readout(heap, 50, t)
    assert e.value.code == "NonzeroPadding"


def test_readout_bad_tag():
    with pytest.raises(cos.ReadoutError) as e:
        cos.readout({7: 9}, 7, T("bool"))
    assert e.value.code == "BadTag"


def test_readout_missing_cell():
    with pytest.raises(cos.ReadoutError) as e:
        cos.readout({}, 7, S.INT)
    assert e.value.code == "MissingCell"


# -- write_value ----------------------------------------------------------------


def test_write_pair():
    heap = {}
    a = write_value(heap, T("int * int"), V.Pair(7, 5), Alloc())
    assert heap[a] == 7 and heap[a + 1] == 5


def test_write_unit_touches_nothing():
    heap = {}
    write_value(heap, S.UNIT, V.UNIT, Alloc())
    assert heap == {}


def test_write_inj_is_single_cell_for_bool():
    heap = {}
    a = write_value(heap, S.BOOL, V.FALSE, Alloc())
    assert heap == {a: 0}


def test_write_readout_roundtrip():
    rng = random.Random(5)
    sorts = [
        S.INT, S.UNIT, T("int * int"), T("own int"), T("bool + int * int"),
        T("mu X. int * own X + unit"), T("own (own int)"),
    ]
    values = {
        0: [-3, 0, 7],
        1: [V.UNIT],
        2: [V.Pair(1, 2)],
        3: [V.Box(5)],
        4: [V.Inj(0, V.TRUE), V.Inj(1, V.Pair(8, 9))],
        5: [mklist(), mklist(1), mklist(1, 2, 3)],
        6: [V.Box(V.Box(11))],
    }
    for i, t in enumerate(sorts):
        for v in values[i]:
            heap = {}
            a = write_value(heap, t, v, Alloc())
            got, m = cos.readout(heap, a, t)
            assert got == v
            assert sorted(set(m)) == sorted(m), "fresh cells, no duplicates"
            assert set(m) == set(heap), "footprint covers exactly the written cells"


def test_write_checks_the_sort_once(monkeypatch):
    # one top-level sort check, not one more per owned pointee
    calls = []
    real = translate.sort_of_type
    monkeypatch.setattr(translate, "sort_of_type", lambda t: calls.append(t) or real(t))
    t = T("mu X. int * own X + unit")
    for n in (0, 1, 5):
        calls.clear()
        heap = {}
        a = write_value(heap, t, mklist(*range(n)), Alloc())
        assert len(calls) == 1
        assert cos.readout(heap, a, t)[0] == mklist(*range(n))


def test_run_checks_each_input_sort_once(monkeypatch):
    # machine.entry_fn checks each boxed input; initial_config does not again
    calls = []
    for module in (translate, machine):
        real = module.sort_of_type
        monkeypatch.setattr(module, "sort_of_type", lambda t, real=real: calls.append(t) or real(t))
    rng = random.Random(4)
    for e in corpus.CORPUS:
        prog = corpus.load(e.name)
        inputs = corpus.random_inputs(prog, e.entry_fn, rng, SampleSpec(-4, 4, max_depth=3))
        calls.clear()
        cos.run(prog, e.entry_fn, inputs, fuel=50)
        assert len(calls) == len(inputs), e.name


def test_write_sort_mismatch():
    with pytest.raises(cos.RunError) as e:
        write_value({}, S.INT, V.UNIT, Alloc())
    assert e.value.code == "SortMismatch"


# -- small steps -----------------------------------------------------------------


@pytest.fixture(scope="module")
def inc_max_setup():
    prog = corpus.load("inc_max")
    return prog, typeck.type_program(prog)


def test_mutbor_step_shares_address(inc_max_setup):
    prog, typing = inc_max_setup
    alloc = Alloc()
    cfg = cos.initial_config(prog, "inc_max", [V.Box(4), V.Box(3)], alloc)
    rng = random.Random(0)
    res = cos.step(prog, typing, cfg, rng, alloc)  # intro
    res = cos.step(prog, typing, res.config, rng, alloc)  # mutbor
    frame = res.config.top.frame
    assert frame["ma"] == frame["oa"]
    assert res.config.heap == cfg.heap


def test_final_rule(inc_max_setup):
    prog, typing = inc_max_setup
    out = cos.run(prog, "inc_max", [V.Box(4), V.Box(3)])
    last = out.trace[-1]
    rng = random.Random(0)
    assert is_final(prog, last)
    assert isinstance(cos.step(prog, typing, last, rng, Alloc(start=10_000)), cos.Final)


def test_swap_step_exchanges_blocks(inc_max_setup):
    prog, typing = inc_max_setup
    out = cos.run(prog, "inc_max", [V.Box(4), V.Box(3)])
    by_label = {(c.top.fn, c.top.label): c for c in out.trace}
    before = by_label[("inc_max", "L7")]
    after = by_label[("inc_max", "L8")]
    a = before.top.frame["mc"]
    b = before.top.frame["oc2"]
    assert before.heap[a] == 4 and before.heap[b] == 5
    assert after.heap[a] == 5 and after.heap[b] == 4


def test_run_inc_max_returns_true(inc_max_setup):
    prog, _ = inc_max_setup
    out = cos.run(prog, "inc_max", [V.Box(4), V.Box(3)])
    assert out.status == "returned"
    assert out.value == V.Box(V.TRUE)
    assert out.leaked == ()


def test_just_rec_base_seed():
    prog = corpus.load("just_rec")
    # find a seed whose first draw is >= 0: immediate true
    for seed in range(50):
        if random.Random(seed).randint(-128, 127) >= 0:
            break
    out = cos.run(prog, "just_rec_main", [V.Box(5)], seed=seed)
    assert out.status == "returned" and out.value == V.Box(V.TRUE)


def test_fuel_zero():
    prog = corpus.load("inc_max")
    out = cos.run(prog, "inc_max", [V.Box(4), V.Box(3)], fuel=0)
    assert out.status == "out_of_fuel"


def test_not_simple_function_rejected():
    prog = corpus.load("inc_max")
    with pytest.raises(cos.RunError) as e:
        cos.run(prog, "take_max", [V.MutPair(1, 2), V.MutPair(3, 4)])
    assert e.value.code == "NotSimpleFunction"


def test_sort_mismatch_inputs():
    # both interpreters enter through machine.entry_fn's one check
    prog = corpus.load("inc_max")
    for run in (cos.run, aos.run):
        with pytest.raises(cos.RunError) as e:
            run(prog, "inc_max", [V.Box(V.UNIT), V.Box(3)])
        assert e.value.code == "SortMismatch"
        assert str(e.value) == "[SortMismatch] argument 'oa': box(()) does not fit own int"


def test_safe_readout_frame_duplicate():
    prog = corpus.load("inc_max")
    typing = typeck.type_program(prog)
    gamma = typing.ctx("inc_max", "entry").gamma
    heap = {500: 7}
    frame = {"oa": 500, "ob": 500}
    with pytest.raises(cos.ReadoutError) as e:
        cos.safe_readout_frame(heap, frame, gamma)
    assert e.value.code == "DuplicateFootprint"


def test_safe_readout_frame_single():
    prog = corpus.load("inc_max")
    typing = typeck.type_program(prog)
    gamma = dict(typing.ctx("inc_max", "entry").gamma)
    del gamma["ob"]
    out, _ = cos.safe_readout_frame({500: 5}, {"oa": 500}, gamma)
    assert out == {"oa": V.Box(5)}


def test_progression_no_stuck_on_corpus():
    # randomized runs across every corpus program never get stuck
    total_steps = 0
    rng = random.Random(9)
    for e in corpus.CORPUS:
        prog = corpus.load(e.name)
        typing = typeck.type_program(prog)
        from corhorn.logic import SampleSpec

        for trial in range(6):
            ins = corpus.random_inputs(prog, e.entry_fn, rng, SampleSpec(-4, 4, max_depth=3))
            out = cos.run(prog, e.entry_fn, ins, seed=trial, fuel=700,
                          typing=typing, keep_trace=False)
            assert out.status != "stuck", out.reason
            total_steps += out.steps
    assert total_steps >= 10_000


def test_heap_leak_free_at_final():
    rng = random.Random(3)
    from corhorn.logic import SampleSpec

    for e in corpus.CORPUS:
        prog = corpus.load(e.name)
        typing = typeck.type_program(prog)
        for trial in range(4):
            ins = corpus.random_inputs(prog, e.entry_fn, rng, SampleSpec(-3, 3, max_depth=3))
            out = cos.run(prog, e.entry_fn, ins, seed=trial, fuel=700,
                          typing=typing, keep_trace=False)
            if out.status == "returned":
                assert out.leaked == ()


def test_write_readout_identity_on_corpus_sorts():
    # sampled values over every corpus parameter type survive the trip
    from corhorn import logic as L
    from corhorn.translate import sort_of_type

    rng = random.Random(21)
    spec = L.SampleSpec(-6, 6, max_depth=3)
    for e in corpus.CORPUS:
        prog = corpus.load(e.name)
        for _, t in prog.fn(e.entry_fn).params:
            for _ in range(12):
                v = L.random_value(sort_of_type(t.target), spec, rng)
                heap = {}
                a = write_value(heap, t.target, v, Alloc())
                got, m = cos.readout(heap, a, t.target)
                assert got == v
                assert len(set(m)) == len(m)


# -- layout rules' failures --------------------------------------------------------

LAYOUT_SRC = """
fn layout(ox: own int, oy: own int) -> own int {
  entry: let *p = (*ox, *oy); goto L1;
  L1: let *c = copy *p; goto L2;
  L2: drop c; goto L3;
  L3: let *s = inj0<int * int + unit> *p; goto L4;
  L4: match *s { inj0 *q => goto L5, inj1 *u => goto L10 };
  L5: let (*a, *b) = *q; goto L6;
  L6: drop b; goto L7;
  L7: let *w = a; goto L8;
  L8: let z = *w; goto L9;
  L9: return z;
  L10: drop u; goto L11;
  L11: let *z2 = 0; goto L12;
  L12: return z2;
}
"""


def _layout_trace(name):
    # each program's entry function has the program's name
    prog = parser.parse_program(LAYOUT_SRC) if name == "layout" else corpus.load(name)
    inputs = [V.Box(mklist(1))] if name == "inc_some" else [V.Box(4), V.Box(3)]
    return prog, cos.run(prog, name, inputs).trace


# (program, fn, label, variable, offset from its address, new cell or None to delete,
#  nth match of (fn, label) in the trace, Stuck reason)
LAYOUT_CASES = {
    "match-own-missing-tag": ("inc_some", "drop_list", "L1", "oxs", 0, None, 1,
                              "match: missing tag cell 103"),
    "match-own-bad-tag": ("inc_some", "drop_list", "L1", "oxs", 0, 7, 1, "match: bad tag 7"),
    "match-own-missing-padding": ("inc_some", "drop_list", "L1", "oxs", 2, None, 1,
                                  "match: missing padding cell 105"),
    "match-immut-missing-tag": ("inc_some", "sum", "L1", "ixs", 0, None, 0,
                                "match: missing tag cell 100"),
    "match-immut-bad-tag": ("inc_some", "sum", "L1", "ixs", 0, 7, 0, "match: bad tag 7"),
    "match-mut-missing-tag": ("inc_some", "take_some", "L1", "mxs", 0, None, 0,
                              "match: missing tag cell 100"),
    "drop": ("layout", "layout", "L2", "c", 1, None, 0, "drop: missing cell 105"),
    "swap": ("inc_max", "inc_max", "L7", "oc2", 0, None, 0, "swap: missing cell 104"),
    "copy": ("layout", "layout", "L1", "p", 1, None, 0, "copy: missing cell 103"),
    "inj": ("layout", "layout", "L3", "p", 1, None, 0, "inj: missing cell 103"),
    "pair": ("layout", "layout", "entry", "oy", 0, None, 0, "pair: missing cell 101"),
    "deref": ("layout", "layout", "L8", "w", 0, None, 0, "deref: missing cell 109"),
}


@pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
def test_layout_rule_stuck_reasons_pinned(case):
    # one corrupted cell in a configuration of a real trace, and the exact
    # reason the rule that reads the heap layout gets stuck with
    name, fn, label, x, off, cell, nth, reason = LAYOUT_CASES[case]
    prog, trace = _layout_trace(name)
    cfg = [c for c in trace if (c.top.fn, c.top.label) == (fn, label)][nth]
    heap = dict(cfg.heap)
    addr = cfg.top.frame[x] + off
    if cell is None:
        del heap[addr]
    else:
        heap[addr] = cell
    res = cos.step(prog, typeck.type_program(prog), cos.CosConfig(cfg.stack, heap),
                   random.Random(0), Alloc(start=10_000))
    assert res == cos.Stuck(reason)


# -- stutter shortcut in machine.drive ------------------------------------------------


def stepping_drive(step, cfg, fuel, keep_trace, finish):
    # machine.drive without its stutter shortcut: a stuttering run steps on to fuel
    trace = [cfg] if keep_trace else []
    steps = 0
    while True:
        res = step(cfg)
        if not isinstance(res, Next):
            if isinstance(res, Final):
                value, leaked = finish(cfg)
                return RunOutcome("returned", value=value, steps=steps, trace=trace, leaked=leaked)
            return RunOutcome("stuck", reason=res.reason, steps=steps, trace=trace)
        if steps >= fuel:
            return RunOutcome("out_of_fuel", steps=steps, trace=trace)
        cfg = res.config
        steps += 1
        if keep_trace:
            trace.append(cfg)


def counting_steps(module, monkeypatch) -> list:
    # one entry per call of the interpreter's step
    calls = []
    real = module.step

    def counted(*args, **kw):
        calls.append(1)
        return real(*args, **kw)

    monkeypatch.setattr(module, "step", counted)
    return calls


@pytest.mark.parametrize("module", [cos, aos], ids=["cos", "aos"])
def test_stutter_shortcut_gives_the_stepped_outcome(module, monkeypatch):
    # every run ends as it does when stepped to fuel (status, value, steps,
    # leaked cells and the whole trace); the stuttering runs take far fewer steps
    from corhorn.logic import SampleSpec

    spec = SampleSpec(-4, 4, max_depth=3)
    calls = counting_steps(module, monkeypatch)
    ends, cut = Counter(), 0
    for e in corpus.CORPUS:
        prog = corpus.load(e.name)
        typing = typeck.type_program(prog)
        rng = random.Random(zlib.crc32(e.name.encode()))
        for _ in range(8):
            ins = corpus.random_inputs(prog, e.entry_fn, rng, spec)
            kw = dict(seed=rng.randrange(2 ** 31), fuel=2000, typing=typing, rand_range=(-8, 8))
            calls.clear()
            fast = module.run(prog, e.entry_fn, ins, **kw)
            fast_calls = len(calls)
            with monkeypatch.context() as m:
                m.setattr(module, "drive", stepping_drive)
                stepped = module.run(prog, e.entry_fn, ins, **kw)
            assert fast == stepped and len(calls) == fast_calls + stepped.steps + 1
            ends[fast.status] += 1
            cut += fast_calls < fast.steps
    assert (ends, cut) == ({"returned": 64, "out_of_fuel": 16}, 16)


@pytest.mark.parametrize("module", [cos, aos], ids=["cos", "aos"])
def test_stutter_shortcut_ends_take_some_on_the_empty_list(module, monkeypatch):
    # take_some's `N1: mu0 as mut<'a> unit; goto N1` gives back its own configuration
    calls = counting_steps(module, monkeypatch)
    out = module.run(corpus.load("inc_some"), "inc_some", [V.Box(mklist())], fuel=20_000)
    assert (out.status, out.steps, len(out.trace), len(calls)) == (
        "out_of_fuel", 20_000, 20_001, 16)
    assert out.trace[15].top.label == "N1" and out.trace[15:] == [out.trace[15]] * 19_986


CYCLE_SRC = """
fn spin(ox: own int) -> own int {
  entry: let *t = rand(); goto L1;
  L1: drop t; goto entry;
}

fn lap(ox: own int) -> own int {
  entry: intro 'a; goto L1;
  L1: now 'a; goto entry;
}
"""


@pytest.mark.parametrize("fn", ["spin", "lap"])
def test_stutter_shortcut_lets_longer_cycles_step_to_fuel(fn, monkeypatch):
    # each configuration comes back two steps later, never one: not a stutter
    prog = parser.parse_program(CYCLE_SRC)
    calls = counting_steps(cos, monkeypatch)
    out = cos.run(prog, fn, [V.Box(1)], fuel=300, rand_range=(0, 0))
    assert (out.status, out.steps, len(calls)) == ("out_of_fuel", 300, 301)
    assert out.trace[0] == out.trace[2] != out.trace[1]
