"""A label predicate takes its live variables in sorted order, then the
result.  These tests check that every atom of a label predicate follows
that order whatever the order of a function's parameters: the call
clause, the oracle's query and the lockstep's rendering, and that the
lockstep checks the clauses the translation emits."""

import dataclasses
import itertools
import random
from collections import Counter

import pytest

from corhorn import cli, corpus, harness, logic as L, parser, syntax as S, translate as T, typeck, values as V

# Parameters out of alphabetical order, passed through a call: the callee
# predicate takes (oa, ob, res), the caller passes (ox, oy) by position.
SUB = """
fn sub(ob: own int, oa: own int) -> own int {
  entry: let *r = *ob - *oa; goto L1;
  L1: drop ob; goto L2;
  L2: drop oa; goto L3;
  L3: return r;
}
"""
SUB_MAIN = SUB + """
fn main(ox: own int, oy: own int) -> own int {
  entry: let r = sub(ox, oy); goto L1;
  L1: return r;
}
"""

# The same with parameters of two sorts, so a misordered call is ill-sorted.
PICK_MAIN = """
fn pick(ob: own int, oa: own bool) -> own int {
  entry: drop oa; goto L1;
  L1: return ob;
}

fn main(ox: own int, oy: own bool) -> own int {
  entry: let r = pick(ox, oy); goto L1;
  L1: return r;
}
"""


def _programs():
    """(name, program) for each corpus entry and each test_features program."""
    from test_features import CASES

    progs = [(e.name, corpus.load(e.name)) for e in corpus.CORPUS]
    return progs + [(name, parser.parse_program(src)) for name, src, *_ in CASES]


PROGRAMS = _programs()


def _reversed_params(prog: S.Program) -> S.Program:
    """prog with every function's parameters reversed, and every call's
    arguments with them."""

    def flip(stmt):
        if isinstance(stmt, S.StmtInstr) and isinstance(stmt.instr, S.Call):
            return dataclasses.replace(stmt, instr=dataclasses.replace(stmt.instr, args=stmt.instr.args[::-1]))
        return stmt

    return S.Program({
        fn.name: dataclasses.replace(fn, params=fn.params[::-1],
                                     body={label: flip(s) for label, s in fn.body.items()})
        for fn in prog
    })


@pytest.mark.parametrize("name, prog", PROGRAMS, ids=[name for name, _ in PROGRAMS])
def test_translation_ignores_parameter_order(name, prog):
    flipped = _reversed_params(prog)
    assert [fn.params[::-1] for fn in flipped] == [fn.params for fn in prog]
    assert T.render_system(T.translate_program(flipped)) == T.render_system(T.translate_program(prog))


def test_call_passes_arguments_in_callee_predicate_order():
    prog = parser.parse_program(SUB_MAIN)
    sys = T.translate_program(prog)
    assert sys.sigs["sub!entry"] == sys.sigs["main!entry"]
    (call,) = [c for c in sys.clauses if c.tag[0] == "main" and c.tag[2] == "entry"]
    assert T.render_clause(call) == "main!entry(ox, oy, res) <= sub!entry(oy, ox, r) /\\ main!L1(r, res)"


@pytest.mark.parametrize("fn", ["sub", "main"])
def test_oracle_queries_inputs_in_predicate_order(fn):
    prog = parser.parse_program(SUB_MAIN)
    inputs = [tuple(V.Box(v) for v in vs) for vs in itertools.product(range(-2, 3), repeat=2)]
    rep = harness.oracle_diff(prog, fn, inputs, seeds=(0,), rand_range=(-2, 2))
    assert (rep.checked, rep.returned, rep.misses) == (25, 25, [])


def test_lockstep_links_a_call_with_unsorted_parameters():
    prog = parser.parse_program(SUB_MAIN)
    typing = typeck.type_program(prog)
    for seed in range(4):
        inputs = [V.Box(seed - 1), V.Box(2 - seed)]
        for check in (harness.lockstep_cos_aos, harness.lockstep_aos_sldc):
            rep = check(prog, "main", inputs, seed=seed, typing=typing)
            assert rep.ok and rep.final_value == V.show(V.Box(2 * seed - 3)), (check.__name__, rep.detail)


def test_mixed_sort_call_translates(capsys, tmp_path):
    path = tmp_path / "pick.cor"
    path.write_text(PICK_MAIN)
    code = cli.main(["translate", str(path), "--format", "smt2"])
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    assert out.out.startswith("(set-logic HORN)") and "(check-sat)" in out.out
    prog = parser.parse_program(PICK_MAIN)
    rep = harness.oracle_diff(prog, "main", [(V.Box(3), V.Box(V.TRUE))], seeds=(0,))
    assert (rep.returned, rep.misses) == (1, [])


# -- the lockstep's clauses ---------------------------------------------------


def test_lockstep_takes_each_labels_clauses_once_without_translating(monkeypatch):
    # once per label per typing and program: the typing records each
    # label's clauses with the program (`translate.label_clauses`)
    prog = corpus.load("inc_some")
    calls = Counter()
    real = T.clauses_for_label

    def counted(prog_, typing_, f, label, stmt, order=0):
        calls[f"{f}:{label}"] += 1
        return real(prog_, typing_, f, label, stmt, order)

    def no_translation(*args, **kwargs):
        raise AssertionError("the lockstep translated the program")

    monkeypatch.setattr(T, "clauses_for_label", counted)
    monkeypatch.setattr(T, "translate_program", no_translation)
    rng = random.Random(5)
    draws = []
    for _ in range(3):
        inputs = corpus.random_inputs(prog, "inc_some", rng, L.SampleSpec(-4, 4, max_depth=3))
        draws.append((inputs, rng.randrange(100)))

    def check(prog_, typing_, inputs, seed):
        calls.clear()
        rep = harness.lockstep_aos_sldc(prog_, "inc_some", inputs, seed=seed,
                                        fuel=250, typing=typing_, rand_range=(-8, 8))
        assert rep.ok
        assert len(rep.steps) > len({s.point for s in rep.steps})  # labels ran more than once
        return {s.point for s in rep.steps}

    # the first check under a typing takes exactly its executed labels,
    # once each; a later one only labels that no earlier check took
    typing = typeck.type_program(prog)
    taken, reused = set(), 0
    for inputs, seed in draws:
        executed = check(prog, typing, inputs, seed)
        assert set(calls) == executed - taken and set(calls.values()) <= {1}
        reused += len(executed & taken)
        taken |= executed
    assert reused
    # a fresh typing, or the same typing with a program parsed again,
    # takes them again
    for prog_, typing_ in ((prog, typeck.type_program(prog)), (corpus.load("inc_some"), typing)):
        inputs, seed = draws[0]
        executed = check(prog_, typing_, inputs, seed)
        assert set(calls) == executed and set(calls.values()) == {1}


@pytest.mark.parametrize("name, prog", PROGRAMS, ids=[name for name, _ in PROGRAMS])
def test_label_clauses_are_the_translations(name, prog):
    """Apart from tag[1], the statement's position in its function."""
    typing = typeck.type_program(prog)
    strip = lambda c: (c.binders, c.head, c.body, c.tag[0], c.tag[2:])
    translated = [strip(c) for c in T.translate_program(prog, typing).clauses]
    by_label = [strip(c) for fn in prog for label, stmt in fn.body.items()
                for c in T.clauses_for_label(prog, typing, fn.name, label, stmt)]
    assert by_label == translated
