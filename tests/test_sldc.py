import copy
import functools
import hashlib
import itertools
import json
import pickle
import random
import zlib

import pytest

from corhorn import aos, corpus, logic as L, parser, sldc, syntax as S, translate, typeck, values as V
from corhorn.logic import Atom, CHCSystem, Clause, SampleSpec

from helpers import (canon_config_reference, fresh_copy, is_pattern_reference, map_term_fields,
                     sort_key, subst_reduce_reference, var_names_reference)


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
    assert nxt.stack == (Atom("q", (V.Var("r"),)),)
    assert nxt.result == V.Var("r")
    assert nxt.sorts == {"r": L.INT_S, "z!3": L.INT_S, "w!4": L.INT_S}


def test_sorts_share_the_parent_and_read_as_the_updated_dict():
    root = {"r": L.INT_S, "a": L.UNIT_S}
    one = sldc.Sorts(root, {"x!1": L.BOOL_S, "a": L.INT_S})
    two = sldc.Sorts(one, {"y!2": L.INT_S})
    want = {**root, **one.new, **two.new}
    assert list(two.items()) == list(want.items()) and two == want
    assert len(two) == 4 and repr(two) == repr(want) and two["a"] == L.INT_S
    with pytest.raises(KeyError):
        two["z"]
    assert root == {"r": L.INT_S, "a": L.UNIT_S}
    # a step's successor adds its binders, in binder order, to its parent's
    clause = Clause((("x", L.INT_S), ("y", L.BOOL_S)), Atom("p", (V.Var("x"), V.Var("y"))), ())
    cfg = sldc.ResConfig((Atom("p", (1, V.Var("r"))),), V.Var("r"), two)
    renamer = sldc.Renamer()
    renamer.n = 2
    (nxt,) = sldc.step(cfg, [clause], renamer, SampleSpec(-2, 2))
    assert nxt.sorts.parent is two and list(nxt.sorts) == [*two, "x!3", "y!4"]


def test_var_head_keeps_rest_and_result_themselves():
    # p(x, y) <= q(y, x): each head variable binds to the goal's argument
    clause = Clause((("x", L.INT_S), ("y", L.INT_S)), Atom("p", (V.Var("x"), V.Var("y"))),
                    (Atom("q", (V.Var("y"), V.Var("x"))),))
    assert clause.var_head == ("x", "y")
    r = V.Var("r")
    rest = (Atom("s", (V.Box(r),)), Atom("t", (r, 2)))
    cfg = sldc.ResConfig((Atom("p", (1, r)), *rest), V.Pair(r, 3), {"r": L.INT_S})
    (nxt,) = sldc.step(cfg, [clause], sldc.Renamer(), SampleSpec(-2, 2))
    assert nxt.stack[0] == Atom("q", (r, 1))
    assert all(a is b for a, b in zip(nxt.stack[1:], rest)) and len(nxt.stack) == 3
    assert nxt.result is cfg.result
    assert nxt.sorts == {"r": L.INT_S, "x!1": L.INT_S, "y!2": L.INT_S}


def test_match_arm_head_substitutes_rest():
    # p(box(inj0 c), y) <= q(c, y) against p(b, r): b binds to the head's
    # constructor, so the atoms and the result holding b are rebuilt
    sum_s = S.Sum(L.INT_S, L.INT_S)
    c, y = V.Var("c"), V.Var("y")
    clause = Clause((("c", L.INT_S), ("y", L.INT_S)), Atom("p", (V.Box(V.Inj(0, c)), y)),
                    (Atom("q", (c, y)),))
    assert clause.var_head is None
    b, r = V.Var("b"), V.Var("r")
    untouched = Atom("u", (r,))
    cfg = sldc.ResConfig((Atom("p", (b, r)), Atom("t", (b, r)), untouched), V.Pair(b, r),
                         {"b": L.BoxS(sum_s), "r": L.INT_S})
    (nxt,) = sldc.step(cfg, [clause], sldc.Renamer(), SampleSpec(-2, 2))
    skel = V.Box(V.Inj(0, V.Var("c!1")))
    assert nxt.stack == (Atom("q", (V.Var("c!1"), r)), Atom("t", (skel, r)), untouched)
    assert nxt.stack[2] is untouched and nxt.result == V.Pair(skel, r)


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


def _masked(cfg, ignored):
    """cfg with every argument at an ignored position replaced by the
    placeholder `sldc._dedup_key` reads there."""
    return sldc.ResConfig(tuple(
        Atom(a.pred, tuple(sldc._IGNORED if i in ignored.get(a.pred, ()) else x
                           for i, x in enumerate(a.args)))
        for a in cfg.stack), cfg.result)


def _check_dedup_classes(pairs):
    """Two configurations get equal dedup keys exactly when `canon_config`
    shows their masked copies alike: over the (dedup key, canon_config of
    the masked copy) pairs, each side determines the other."""
    by_key, by_canon = {}, {}
    for key, canon in pairs:
        assert by_key.setdefault(key, canon) == canon, key
        assert by_canon.setdefault(canon, key) == key, canon


def test_canon_config_equals_rename_then_show(monkeypatch):
    # every configuration enumerate_results keys, on each corpus entry
    real, canon = sldc._dedup_key, sldc.canon_config
    keyed = []
    pairs, unmasked = set(), {}  # unmasked: canon_config of each masked copy's originals

    def checked(cfg, ignored):
        key = canon(cfg)
        assert key == canon_config_reference(cfg), cfg
        keyed.append(key)
        dedup, masked = real(cfg, ignored), canon(_masked(cfg, ignored))
        pairs.add((dedup, masked))
        unmasked.setdefault(masked, set()).add(key)
        return dedup

    monkeypatch.setattr(sldc, "_dedup_key", checked)
    for e in corpus.CORPUS:
        prog = corpus.load(e.name)
        system = translate.translate_program(prog, typeck.type_program(prog))
        rng = random.Random(zlib.crc32(e.name.encode()))
        for _ in range(ENUM_INPUTS):
            inputs = tuple(corpus.random_inputs(prog, e.entry_fn, rng, ENUM_SPEC))
            sldc.enumerate_results(system, L.pred_name(e.entry_fn, S.ENTRY), inputs,
                                   depth=20, spec=ENUM_SPEC)
    assert len(keyed) > 1000
    _check_dedup_classes(pairs)
    # configurations fell into shared classes, some only through the mask
    assert len(pairs) < len(keyed) and any(len(c) > 1 for c in unmasked.values())
    x, y = V.Var("x"), V.Var("y")
    hand = [
        (V.Inj(0, V.Inj(1, x)), V.Inj(1, V.Inj(0, V.Inj(1, V.UNIT)))),
        (V.Pair(-3, V.Box(-12)), V.MutPair(x, -1)),
        (V.UNIT, V.Box(V.UNIT)),
        (V.Pair(y, x), V.MutPair(x, y)),
        (V.Pair(x, V.Pair(x, y)), y),
        (True, V.Inj(0, False)),
        (V.BinOpT(V.DerefT(x), "-", -1), V.Inj(0, V.BinOpT(y, "<", V.ProjT(x, 1)))),
        (V.FinalT(V.Inj(1, y)), V.DerefT(V.BinOpT(x, "+", y))),
    ]
    hand_pairs = []
    for arg, res in hand:
        cfg = sldc.ResConfig((Atom("p", (arg, V.Var("z"))), Atom("q", (y,))), res, {})
        assert canon(cfg) == canon_config_reference(cfg)
        # the same atoms keyed under each mask in turn, then the first again:
        # the part cached on an atom follows the mask
        for ignored in ({}, {"p": frozenset({1})}, {"p": frozenset({0, 1})}, {}):
            hand_pairs.append((real(cfg, ignored), canon(_masked(cfg, ignored))))
    # three keys per configuration, but masking hand[2]'s () changes nothing
    assert len(set(hand_pairs)) == 3 * len(hand) - 1
    # two configurations whose atoms show alike, one with q sharing p's variable
    for v in (x, y):
        cfg = sldc.ResConfig((Atom("p", (V.Pair(x, x), V.Var("z"))), Atom("q", (v,))), V.UNIT, {})
        hand_pairs.append((real(cfg, {}), canon(cfg)))
    _check_dedup_classes(hand_pairs)
    assert canon(sldc.ResConfig((Atom("p", (V.Inj(0, V.Inj(1, x)), -2)),), x, {})) == (
        (("p", ("inj0 (inj1 v0)", "-2")),), "v0")


def test_calculate_keeps_unchanged_body_atoms_themselves():
    x, y = V.Var("x"), V.Var("y")
    body = (Atom("p", (V.Box(x), 3)), Atom("q", (y, V.Pair(x, V.UNIT))))
    (out,) = sldc.calculate(body, {}, (), y, {}, sldc.Renamer(), SampleSpec(-1, 1))
    assert out.stack == body and all(b is a for a, b in zip(body, out.stack))
    # a redex rebuilds only its own atom
    red = Atom("r", (V.DerefT(V.Box(2)), x))
    (out,) = sldc.calculate(body + (red,), {}, (), y, {}, sldc.Renamer(), SampleSpec(-1, 1))
    assert out.stack[:2] == body and all(b is a for a, b in zip(body, out.stack))
    assert out.stack[2] == Atom("r", (2, x)) and out.stack[2].args[1] is x


# -- integer branches, one per comparison outcome ---------------------------------

X, R = V.Var("x"), V.Var("r")
COIN = V.BinOpT(X, ">=", 0)
IGNORE_1 = {"q": frozenset({1})}  # q's argument 1 is read by no clause


def _calculated(body, result=R, rest=()):
    """calculate on body + rest at ints -8..8, merging modulo IGNORE_1;
    the configurations and the Merge."""
    merge = sldc.Merge(IGNORE_1)
    sorts = {"x": L.INT_S, "y": L.INT_S, "r": L.INT_S}
    return sldc.calculate(body, {}, rest, result, sorts, sldc.Renamer(), SampleSpec(-8, 8), merge), merge


def test_coin_branches_once_per_outcome():
    # x sits at the ignored position too: one branch for true, one for false
    out, merge = _calculated((Atom("q", (COIN, X, R)),))
    assert sorted(c.stack[0].args[1] for c in out) == [-1, 8]
    assert [c.stack[0].args[:2] for c in out] == [(V.TRUE, 8), (V.FALSE, -1)]
    assert merge.merged == 15
    # a variable with no use left keeps every value
    assert sldc._branch_classes("x", out[0].stack, (), R, IGNORE_1, SampleSpec(-2, 2)) == [
        2, 1, 0, -1, -2]


@pytest.mark.parametrize("body, result, rest", [
    ((Atom("q", (COIN, X, R)),), X, ()),  # x in the result
    ((Atom("q", (COIN, X, X)),), R, ()),  # x at a second position no clause ignores
    ((Atom("q", (COIN, X, R)),), R, (Atom("q", (R, R, X)),)),  # likewise, in the rest
    ((Atom("q", (V.BinOpT(X, "-", 1), X, R)),), R, ()),  # not a comparison
    ((Atom("q", (V.BinOpT(X, "<", V.Var("y")), X, R)),), R, ()),  # not against a literal
], ids=["result", "second_position", "rest", "minus", "two_variables"])
def test_other_uses_keep_every_integer(body, result, rest):
    out, _ = _calculated(body, result, rest)
    assert sorted({c.stack[0].args[1] for c in out}) == list(range(-8, 9))


def test_step_without_merge_branches_per_integer():
    clause = Clause((("x", L.INT_S), ("r", L.INT_S)), Atom("p", (R,)), (Atom("q", (COIN, X, R)),))
    cfg = sldc.ResConfig((Atom("p", (V.Var("s"),)),), V.Var("s"), {"s": L.INT_S})
    full = sldc.step(cfg, [clause], sldc.Renamer(), SampleSpec(-8, 8))
    assert [c.stack[0].args[1] for c in full] == list(range(8, -9, -1))
    merged = sldc.step(cfg, [clause], sldc.Renamer(), SampleSpec(-8, 8), sldc.Merge(IGNORE_1))
    assert merged == [full[0], full[9]]


def test_merged_branches_draw_the_names_of_full_branching():
    # each branch expands *b after the comparison, drawing one fresh name;
    # the branch for -1 is the tenth built, so it draws the tenth name
    body = (Atom("q", (COIN, X, V.DerefT(V.Var("b")))),)
    full_renamer, merge_renamer = sldc.Renamer(), sldc.Renamer()
    sorts = {"x": L.INT_S, "b": L.BoxS(L.INT_S)}
    full = sldc.calculate(body, {}, (), R, sorts, full_renamer, SampleSpec(-8, 8))
    merged = sldc.calculate(body, {}, (), R, sorts, merge_renamer, SampleSpec(-8, 8), sldc.Merge(IGNORE_1))
    assert merged == [full[0], full[9]]
    assert [c.stack[0].args[2] for c in merged] == [V.Var("b!c!1"), V.Var("b!c!10")]
    assert merge_renamer.n == full_renamer.n == 17


def test_ignored_positions_hand_built():
    x, y, z = V.Var("x"), V.Var("y"), V.Var("z")
    box = L.BoxS(L.INT_S)
    sys = CHCSystem(
        [
            # a non-linear head variable, also through a constructor
            Clause((("x", L.INT_S),), Atom("nonlin", (x, x)), ()),
            Clause((("x", L.INT_S),), Atom("nested", (x, V.Box(x))), ()),
            # x is used in the body, y nowhere else
            Clause((("x", L.INT_S), ("y", L.INT_S)), Atom("body", (x, y)), (Atom("q", (x,)),)),
            # a constructor head argument
            Clause((("x", L.INT_S), ("y", L.INT_S)), Atom("ctor", (V.Box(x), y)), ()),
            # two clauses: the positions both ignore
            Clause((("x", L.INT_S), ("y", L.INT_S), ("z", L.INT_S)), Atom("two", (x, y, z)),
                   (Atom("q", (x,)),)),
            Clause((("x", L.INT_S), ("y", L.INT_S), ("z", L.INT_S)), Atom("two", (x, y, z)),
                   (Atom("q", (z,)),)),
        ],
        # q has no clauses
        {"nonlin": (L.INT_S, L.INT_S), "nested": (L.INT_S, box), "body": (L.INT_S, L.INT_S),
         "ctor": (box, L.INT_S), "two": (L.INT_S, L.INT_S, L.INT_S), "q": (L.INT_S,)},
    )
    assert sldc.ignored_positions(sys.by_pred()) == {"body": {1}, "ctor": {1}, "two": {1}}


def test_ignored_positions_of_a_drop_label():
    # `drop t` keeps t in its own predicate and passes nothing of it on
    prog = corpus.load("linger_dec")
    ignored = sldc.ignored_positions(translate.translate_program(prog).by_pred())
    assert ignored["linger_dec!L8"] == {2}


def test_canon_config_renaming():
    a = sldc.ResConfig((Atom("p", (V.Var("x"), V.Var("x"))),), V.Var("x"), {})
    b = sldc.ResConfig((Atom("p", (V.Var("z"), V.Var("z"))),), V.Var("z"), {})
    c = sldc.ResConfig((Atom("p", (V.Var("z"), V.Var("w"))),), V.Var("z"), {})
    assert sldc.canon_config(a) == sldc.canon_config(b)
    assert sldc.canon_config(a) != sldc.canon_config(c)


def _translations():
    """(name, system) for each corpus entry and each test_features
    program, with and without its goal attached."""
    from test_features import CASES

    progs = [(e.name, corpus.load(e.name), translate.GoalSpec.parse(e.goal)) for e in corpus.CORPUS]
    for name, src, fn, _, _ in CASES:
        prog = parser.parse_program(src)
        returns_bool = S.whnf(prog.fn(fn).ret.target) == S.whnf(S.BOOL)
        goal = translate.GoalSpec.parse(f"{fn} returns true" if returns_bool else f"{fn} equals box(0)")
        progs.append((name, prog, goal))
    for name, prog, goal in progs:
        system = translate.translate_program(prog, typeck.type_program(prog))
        yield name, system
        yield name + "+goal", translate.attach_goal(system, prog, goal)


def test_clause_heads_are_patterns():
    # step's unifier then maps variables to patterns, so calculate need
    # only normalize the clause body
    names = []
    for name, system in _translations():
        names.append(name)
        for c in system.clauses:
            if c.head is not None:
                assert all(V.is_pattern(x) for x in c.head.args), (name, c.tag)
    assert len(names) == 2 * (len(corpus.CORPUS) + 6)


def test_walks_return_unchanged_terms_themselves():
    terms = [x for _, system in _translations() for c in system.clauses
             for a in ((c.head,) if c.head else ()) + c.body for x in a.args]
    patterns = [x for x in terms if V.is_pattern(x)]
    assert len(patterns) > 1000 and len(terms) > len(patterns)
    for t in terms:
        assert L.subst_reduce(t, {"no such var": 0}) is t
        assert V.subst_absvars(t, {-1: 0}) is t
    for p in patterns:
        assert L.subst_reduce(p, {}) is p
    # a changed leaf rebuilds only its own path
    x, y = V.Var("x"), V.Var("y")
    t = V.Pair(V.Box(x), V.MutPair(y, V.Inj(0, 3)))
    got = L.subst_reduce(t, {"x": 1})
    assert got == V.Pair(V.Box(1), t.snd) and got.snd is t.snd
    red = V.Pair(V.DerefT(V.Box(2)), t.snd)
    assert L.subst_reduce(red, {}) == V.Pair(2, t.snd) and L.subst_reduce(red, {}).snd is t.snd


def test_map_children_maps_each_child_left_then_right():
    # one node of each type, mapped by a fn that replaces one variable:
    # every child is visited, in order, whether or not an earlier one
    # changed, and the result is the field-wise rebuild of the reference
    x, y = V.Var("x"), V.Var("y")
    nodes = [V.Box(x), V.MutPair(x, y), V.Inj(1, y), V.Pair(y, x), V.DerefT(y),
             V.FinalT(x), V.ProjT(x, 1), V.BinOpT(x, "+", y)]
    for t in nodes:
        for var in (x, y):
            def fn(k):
                seen.append(k)
                return V.Box(k) if k is var else k
            seen = []
            got = V.map_children(t, fn)
            assert seen == list(V.children(t)), t
            assert got == map_term_fields(t, lambda k: V.Box(k) if k is var else k), t
            assert (got is t) == (var not in seen), t
    for leaf in (3, V.UNIT, x, V.AbsVar(1)):
        assert V.map_children(leaf, V.Box) is leaf


_X, _Y = V.Var("x"), V.Var("y")
REDEXES = [
    # the definitional equations of the term forms, with their operands
    # given as variables bound to the values of VALUATION
    (V.DerefT(V.Box(_X)), _X),
    (V.DerefT(V.MutPair(_X, _Y)), _X),
    (V.FinalT(V.MutPair(_X, _Y)), _Y),
    (V.ProjT(V.Pair(_X, _Y), 0), _X),
    (V.ProjT(V.Pair(_X, _Y), 1), _Y),
    # the operators: ints for arithmetic, inj1 () / inj0 () for comparisons
    (V.BinOpT(7, "+", -3), 4),
    (V.BinOpT(7, "-", 9), -2),
    (V.BinOpT(-7, "*", 3), -21),
    (V.BinOpT(3, ">=", 3), V.Inj(1, V.UNIT)),
    (V.BinOpT(2, ">=", 3), V.Inj(0, V.UNIT)),
    (V.BinOpT(3, "<=", 3), V.Inj(1, V.UNIT)),
    (V.BinOpT(4, "<=", 3), V.Inj(0, V.UNIT)),
    (V.BinOpT(5, "==", 5), V.Inj(1, V.UNIT)),
    (V.BinOpT(5, "==", 6), V.Inj(0, V.UNIT)),
    (V.BinOpT(5, "!=", 6), V.Inj(1, V.UNIT)),
    (V.BinOpT(5, "!=", 5), V.Inj(0, V.UNIT)),
    (V.BinOpT(2, "<", 3), V.Inj(1, V.UNIT)),
    (V.BinOpT(3, "<", 3), V.Inj(0, V.UNIT)),
    (V.BinOpT(4, ">", 3), V.Inj(1, V.UNIT)),
    (V.BinOpT(3, ">", 3), V.Inj(0, V.UNIT)),
    # inner redexes first
    (V.BinOpT(V.DerefT(V.Box(2)), "*", V.ProjT(V.Pair(1, 5), 1)), 10),
    (V.Box(V.FinalT(V.DerefT(V.Box(V.MutPair(_X, _Y))))), V.Box(_Y)),
]
VALUATION = {"x": V.Box(V.Inj(1, 3)), "y": -4}


@pytest.mark.parametrize("term,want", REDEXES, ids=lambda t: V.show(t))
def test_redex_equations(term, want):
    got = L.subst_reduce(term, {})
    assert got == want and type(got) is type(want)
    got, want = L.interpret_term(VALUATION, term), L.subst_reduce(want, VALUATION)
    assert got == want and type(got) is type(want)


def _node_types(t):
    return {type(t)}.union(*map(_node_types, V.children(t)))


def test_interpretation_is_simplification_of_the_instance():
    # every clause argument of the translated programs, under sampled
    # valuations of its clause's binders
    spec = SampleSpec(-4, 4, max_depth=3)
    seen = set()
    count = 0
    for name, system in _translations():
        rng = random.Random(zlib.crc32(name.encode()))
        for c in system.clauses:
            args = [x for a in ((c.head,) if c.head else ()) + c.body for x in a.args]
            for _ in range(3):
                val = {x: L.random_value(s, spec, rng) for x, s in c.binders}
                for arg in args:
                    got = L.interpret_term(val, arg)
                    assert V.is_value(got), (name, c.tag, V.show(arg))
                    assert got == L.subst_reduce(arg, val), (name, c.tag, V.show(arg))
                    count += 1
                seen.update(*map(_node_types, args))
    assert count > 10000
    assert seen == {int, V.UnitVal, V.Var, V.Box, V.MutPair, V.Inj, V.Pair,
                    V.DerefT, V.FinalT, V.ProjT, V.BinOpT}


def _holes(v, rng, names):
    """v with some of its subterms, drawn by rng, replaced by variables
    named from names: a pattern."""
    if rng.random() < 0.25:
        return V.Var(f"h!{next(names)}")
    return V.map_children(v, lambda k: _holes(k, rng, names))


def test_subst_reduce_is_substitution_then_reduction():
    # every clause argument of the translated programs, under seeded
    # substitutions that leave some binders unbound and map the others
    # to patterns, which hold fresh variables or are values
    spec = SampleSpec(-4, 4, max_depth=3)
    names = itertools.count()
    count = kept = opened = 0
    for name, system in _translations():
        rng = random.Random(zlib.crc32(name.encode()))
        for c in system.clauses:
            args = [x for a in ((c.head,) if c.head else ()) + c.body for x in a.args]
            for _ in range(3):
                theta = {x: _holes(L.random_value(s, spec, rng), rng, names)
                         for x, s in c.binders if rng.random() < 0.6}
                opened += sum(not V.is_closed(t) for t in theta.values())
                for arg in args:
                    got, want = L.subst_reduce(arg, theta), subst_reduce_reference(arg, theta)
                    assert got == want and type(got) is type(want), (name, c.tag, V.show(arg))
                    # a term with no bound variable and no redex comes back as itself
                    if V.is_pattern(arg) and not V.vars_in(arg) & theta.keys():
                        assert got is arg, (name, c.tag, V.show(arg))
                        kept += 1
                    count += 1
    assert count > 10000 and kept > 1000 and count - kept > 1000 and opened > 1000
    # closed redexes, which no clause argument has
    for term, _ in REDEXES:
        for theta in ({}, VALUATION, {"x": V.Var("z")}):
            assert L.subst_reduce(term, theta) == subst_reduce_reference(term, theta), V.show(term)


def test_substitutions_return_untouched_atoms_and_frame_entries_themselves():
    atoms = tuple(a for _, system in _translations() for c in system.clauses for a in c.body)
    assert len(atoms) > 100
    assert all(b is a for a, b in zip(atoms, sldc._subst_atoms(atoms, {"no such var": 0})))
    touched, untouched = Atom("p", (V.Box(V.Var("x")), 1)), Atom("q", (V.Var("y"), V.Box(2)))
    got = sldc._subst_atoms((touched, untouched), {"x": 3})
    assert got == (Atom("p", (V.Box(3), 1)), untouched) and got[1] is untouched
    # resolving a prophecy rebuilds only the frame entries that hold it
    p = V.AbsVar(0, "p")
    holds = aos.AbsFrameEntry("f", "L1", {}, None, {"x": V.MutPair(1, p), "y": V.Box(2)})
    free = aos.AbsFrameEntry("g", "L2", {}, "r", {"z": V.Box(V.Pair(3, V.UNIT))})
    cfg = aos.AbsConfig((holds, free), typeck.LftCtx.empty())
    new = cfg.subst(0, 5)
    assert new.stack[0].frame == {"x": V.MutPair(1, 5), "y": V.Box(2)}
    assert new.stack[0].frame["y"] is holds.frame["y"] and new.stack[1] is free
    assert all(b is a for a, b in zip(cfg.stack, cfg.subst(1, 5).stack))


def _first_occurrence_renamer():
    mapping: dict[str, str] = {}
    return lambda x: mapping.setdefault(x, f"v{len(mapping)}")


def _check_cached_facts(t):
    """The facts cached on t and on each of its subterms agree with
    their uncached definitions."""
    names = var_names_reference(t)
    assert [v.name for v in V.var_leaves(t)] == names and V.vars_in(t) == set(names), t
    assert all(type(v) is V.Var for v in V.var_leaves(t)), t
    assert V.is_closed(t) == (not names), t
    assert V.is_pattern(t) == is_pattern_reference(t), t
    assert V.show(t, _first_occurrence_renamer()) == \
        V.show(fresh_copy(t), _first_occurrence_renamer()), t
    assert V.show(t) == V.show(fresh_copy(t)), t
    for k in V.children(t):
        _check_cached_facts(k)


def test_cached_term_facts_agree(monkeypatch):
    # every stack argument and result of every configuration that
    # enumerate_results builds on each corpus entry
    terms, atoms = {}, {}
    real = sldc._dedup_key

    def collect(cfg, ignored):
        for x in [*(x for a in cfg.stack for x in a.args), cfg.result]:
            terms[id(x)] = x
        atoms.update((id(a), a) for a in cfg.stack)
        return real(cfg, ignored)

    monkeypatch.setattr(sldc, "_dedup_key", collect)
    for e in corpus.CORPUS:
        prog = corpus.load(e.name)
        system = translate.translate_program(prog, typeck.type_program(prog))
        rng = random.Random(zlib.crc32(e.name.encode()))
        for _ in range(ENUM_INPUTS):
            inputs = tuple(corpus.random_inputs(prog, e.entry_fn, rng, ENUM_SPEC))
            sldc.enumerate_results(system, L.pred_name(e.entry_fn, S.ENTRY), inputs,
                                   depth=40, spec=ENUM_SPEC)
    assert len(terms) > 1000
    for t in terms.values():
        _check_cached_facts(t)
    x, y = V.Var("x"), V.Var("y")
    hand = [
        V.Inj(0, True), V.Pair(False, V.Inj(1, True)),
        V.AbsVar(7, "a"), V.Box(V.AbsVar(8)), V.MutPair(V.AbsVar(9, "p"), x),
        V.Box(V.DerefT(x)), V.Pair(1, V.BinOpT(2, "+", 3)), V.Inj(1, V.ProjT(V.Pair(x, 1), 0)),
        V.Pair(x, V.Pair(y, x)), V.MutPair(V.Box(y), V.Box(y)),
    ]
    for t in hand:
        _check_cached_facts(t)
    assert [V.is_closed(t) for t in hand] == [True] * 4 + [False, False, True, False, False, False]
    assert [V.is_pattern(t) for t in hand] == [True, True] + [False] * 6 + [True, True]
    assert V.show(hand[0]) == "inj0 1" and V.show(hand[4]) == "mut(p, x)"
    assert V.show(hand[8], _first_occurrence_renamer()) == "(v0, (v1, v0))"
    # a closed non-pattern still has its redex reduced
    assert L.subst_reduce(hand[6], {}) == V.Pair(1, 5)
    # a node asked about before and after its first use
    ground = V.Pair(V.Box(3), V.Inj(1, V.UNIT))
    t = V.MutPair(ground, y)
    assert (V.is_closed(t), V.is_closed(ground), V.is_pattern(t)) == (False, True, True)
    got = L.subst_reduce(t, {"y": ground})
    assert got == V.MutPair(ground, ground) and got.cur is ground and got.fin is ground
    assert V.show(got) == "mut((box(3), inj1 ()), (box(3), inj1 ()))" == V.show(fresh_copy(got))
    assert (V.is_closed(t), V.is_closed(got), V.is_pattern(got)) == (False, True, True)
    assert L.resolve(got, {"y": 0}) is got and L.subst_reduce(got, {}) is got
    # the cached facts are invisible to equality, hashing, printing,
    # copying and pickling
    for t in [got, *hand]:
        fresh = fresh_copy(t)
        fields = {k: getattr(fresh, k) for k in fresh.__match_args__}
        before = (hash(fresh), repr(fresh), pickle.dumps(fresh))
        _check_cached_facts(fresh)
        assert "_vars" in vars(fresh) or not V.children(fresh)
        assert fresh == t and (hash(fresh), repr(fresh), pickle.dumps(fresh)) == before
        for twin in (copy.copy(fresh), copy.deepcopy(fresh), pickle.loads(pickle.dumps(fresh))):
            assert twin == t and hash(twin) == hash(t) and repr(twin) == repr(t)
            assert vars(twin) == fields
    # and so is the dedup key part cached on each stack atom
    assert len(atoms) > 1000
    for a in atoms.values():
        fresh = Atom(a.pred, tuple(map(fresh_copy, a.args)))
        before = (hash(fresh), repr(fresh), pickle.dumps(fresh))
        sldc._atom_key(fresh, None)
        assert "_key" in vars(a) and "_key" in vars(fresh)
        assert fresh == a and (hash(fresh), repr(fresh), pickle.dumps(fresh)) == before
        for twin in (copy.copy(fresh), copy.deepcopy(fresh), pickle.loads(pickle.dumps(fresh))):
            assert twin == a and hash(twin) == hash(a) and repr(twin) == repr(a)
            assert vars(twin) == {"pred": a.pred, "args": twin.args}


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
    "just_rec": "f2bb1811650dd1013b29340bb1ec27138f27f379f1675a18336f439e75efcb78",
    "just_rec_unsafe": "0cf1a37d8379cbdbe390a49c5f009545068958668d206db3b5882b49bd6919b4",
    "linger_dec": "352ecafcefade18a0ad9ac07c9d83aaa45d65f38aceea25d63cfe1fbefd2dc41",
    "linger_dec_unsafe": "eecb11c65082812c7540173487d0d8c70bb8cb4e5fd01c61a9cab566e15751ec",
    "inc_some": "3bb819a487e5a706de87afa0f50ea8fa6f88276a7093c0f4084412945f7b0b61",
    "inc_some_unsafe": "c64f58f0ebda74183b3d4d2c99c1404e2da10ce8ab96edac7998e61d7bb06600",
    "inc_some_t": "114eabe04ab8feabe3dc5fd56cc2c455703c8bc218e100b44bd0fba559724993",
    "inc_some_t_unsafe": "23ad10311399c89c2cc782c49052830315d0813d1b48d5e0cfb7556c5c3d4a3f",
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


def _enumerations(e):
    """(outcome, covered) for each input tuple `_enum_digest` draws for
    corpus entry e: covered is the sorted shown values of the result
    sort at ENUM_SPEC that the outcome's patterns cover."""
    prog = corpus.load(e.name)
    system = translate.translate_program(prog, typeck.type_program(prog))
    pred = L.pred_name(e.entry_fn, S.ENTRY)
    values = L.enumerate_values(system.sigs[pred][-1], ENUM_SPEC)
    rng = random.Random(zlib.crc32(e.name.encode()))
    for _ in range(ENUM_INPUTS):
        inputs = tuple(corpus.random_inputs(prog, e.entry_fn, rng, ENUM_SPEC))
        out = sldc.enumerate_results(system, pred, inputs, depth=ENUM_DEPTH.get(e.name, 40),
                                     width=ENUM_WIDTH, spec=ENUM_SPEC)
        yield out, sorted(V.show(w) for w in values if sldc.covers_value(out, w))


# SHA-256 per corpus entry over the number of result patterns,
# `budget_exceeded` and the covered values of `_enumerations`: what an
# enumeration derives, whatever the steps it took and the patterns' text.
PINNED_COVERAGE_DIGESTS = {
    "inc_max": "577aeab844a49e4d8c6c460094d24c8065e8489caa3e15653222685a9ecf384b",
    "inc_max_unsafe": "72315e98e898a592df2475b3d234494827156f33ab5102efc282cbe187b01fe6",
    "just_rec": "efc1af00129c118132acd3f7121eb1f097dbf91b76f1cd39cf33bafd51c131f2",
    "just_rec_unsafe": "b2a4fce006314898d3481389ce227ab01351f74cc156dda16108bff1883f7c0c",
    "linger_dec": "efc1af00129c118132acd3f7121eb1f097dbf91b76f1cd39cf33bafd51c131f2",
    "linger_dec_unsafe": "b2a4fce006314898d3481389ce227ab01351f74cc156dda16108bff1883f7c0c",
    "inc_some": "511aec1554b46a91b1d1ac23b81120a89e7a09666800abca5605cf05a350e87b",
    "inc_some_unsafe": "5c8f1403081207491575413ec22a60c203acfb7ead90845d5584527f5cf0f0f2",
    "inc_some_t": "8801761f9960e00e5f2a2acdbb675e8ceddab968003bce147c8f5c3bad4aa869",
    "inc_some_t_unsafe": "0043513ac907561654a49f0a3d4cb9c8a1131b570bb0a993022cc3e8608457f2",
}


def test_enumeration_coverage_pinned():
    digests = {}
    for e in corpus.CORPUS:
        blob = [[len(out.patterns), out.budget_exceeded, covered]
                for out, covered in _enumerations(e)]
        digests[e.name] = hashlib.sha256(json.dumps(blob).encode()).hexdigest()
    assert digests == PINNED_COVERAGE_DIGESTS


# -- pinned step output -----------------------------------------------------------

STEP_LAYERS = 25  # frontier layers of each enumeration whose successors are hashed


def _step_successors(e):
    """The raw successors `step` returns, fresh names and all, over the
    first frontier layers of a breadth-first enumeration with
    `enumerate_results`' inputs and width.  It dedups on the full
    `canon_config`, not modulo `sldc.ignored_positions` as
    `enumerate_results` does, so past the first drop label its frontiers
    hold configurations the enumeration merges."""
    prog = corpus.load(e.name)
    system = translate.translate_program(prog, typeck.type_program(prog))
    pred = L.pred_name(e.entry_fn, S.ENTRY)
    index = system.by_pred()
    rng = random.Random(zlib.crc32(e.name.encode()))
    for _ in range(ENUM_INPUTS):
        inputs = tuple(corpus.random_inputs(prog, e.entry_fn, rng, ENUM_SPEC))
        renamer = sldc.Renamer()
        r = renamer.fresh("r")
        init = sldc.ResConfig((Atom(pred, inputs + (V.Var(r),)),), V.Var(r),
                              {r: system.sigs[pred][-1]})
        seen = {sldc.canon_config(init)}
        frontier = [init]
        for _ in range(STEP_LAYERS):
            new = []
            for cfg in frontier:
                for nxt in sldc.step(cfg, index.get(cfg.stack[0].pred, ()), renamer, ENUM_SPEC):
                    yield nxt
                    key = sldc.canon_config(nxt)
                    if key not in seen and not nxt.done:
                        seen.add(key)
                        new.append(nxt)
            frontier = new[:ENUM_WIDTH]


def _step_digest(e) -> str:
    """SHA-256 over `_step_successors`, raw names included; sorts hash
    as their `sort_key`."""
    h = hashlib.sha256()
    for nxt in _step_successors(e):
        sorts = [(x, sort_key(s)) for x, s in sorted(nxt.sorts.items())]
        h.update(repr((nxt.stack, nxt.result, sorts)).encode())
    return h.hexdigest()


# SHA-256 per corpus entry of _step_digest.
PINNED_STEP_DIGESTS = {
    "inc_max": "6f0016605545d29e1040304ff6d64b664f3b7b0a900c0cd5f80503f4b4846af8",
    "inc_max_unsafe": "20ccdbe6c48fdbd47623ca1ee897d8eb9b8c75e38995c34ca518b610afe6b883",
    "just_rec": "61e449636f0b3734e968d14e59e869475d30304ae3704f205e7a868b282b56a9",
    "just_rec_unsafe": "3155330765f6aabf1d3a7c469e1ccb3d25932e4c448513155c91b4e51dc73be1",
    "linger_dec": "9fe3e363060b6b5dc8533b3dc71ccefeef1e1a9edee7cdb4d7eeb7fdf75413cd",
    "linger_dec_unsafe": "864d7b06722955f04d9a1751dfabaa85de44250b7ad28668f3d7db385311093c",
    "inc_some": "8c0f265030eddf37470e10cad9a62b3213ad9c9433aacd526f5794bb3d2961ab",
    "inc_some_unsafe": "13b6c47aab3490c649fb54d957b2c57e325a93f97a8ba3e9883575fa259c5ae3",
    "inc_some_t": "2faf5cc9640d21460d0ea60d01a6453508400e855f181e26cea1186b8d230558",
    "inc_some_t_unsafe": "2ebfc46a558f7b097137ecbe4134bc1e24a81cb4e2869d87aaff0667c4015109",
}


def test_step_successors_pinned():
    digests = {e.name: _step_digest(e) for e in corpus.CORPUS}
    assert digests == PINNED_STEP_DIGESTS


def _step_renaming_digest(e) -> str:
    """SHA-256 over `_step_successors` up to renaming: each successor's
    `canon_config` and the sorts it records, without their names."""
    h = hashlib.sha256()
    for nxt in _step_successors(e):
        sorts = sorted(map(sort_key, nxt.sorts.values()))
        h.update(repr((sldc.canon_config(nxt), sorts)).encode())
    return h.hexdigest()


# SHA-256 per corpus entry of _step_renaming_digest: which side of a
# unification is bound, and so which raw names survive, does not move it.
PINNED_STEP_RENAMING_DIGESTS = {
    "inc_max": "97f50ae88b502af789622213c45e5434f0dbe4e6ca40e8ee6e351799185d1adb",
    "inc_max_unsafe": "ca5a3f8fb2ed14a3a5b43878fbec028aef1a8dc3382df43bdaabe34052df68fb",
    "just_rec": "a85ccdaeb6c86b3f83e26c4b17247bc56ce37f488d1c06e4985c483521fd1cc7",
    "just_rec_unsafe": "fb27417d82cc471eedeb0d92b71d9930c38d86648eba8846baba401d842e0a3b",
    "linger_dec": "d82f9889af999e2d21db58a53b0fbe085afa1c3746bb859f1af5e1e9da1c4f12",
    "linger_dec_unsafe": "cb9a5211ca66f4ed5dd146abde4701eccb08d396afb24a474fd9f200e6b15128",
    "inc_some": "f75b327d3c2f7ddfb4c357ee27fe7d41a4a5140b5d023e21098720c183cdbaf5",
    "inc_some_unsafe": "b9bcb8a1caa5f26af86ddbaba10c3e9d1c8cf56d32a33cca80f6835f32bbdd48",
    "inc_some_t": "a1cdb2ae3121b1c8023ce232b4e52f801ae030a6bd3765393c51b790afbb0d9f",
    "inc_some_t_unsafe": "15aaf17e798eb9f5d8384e1bbd3276c48eec10628e2c717a1be6f0dfffc6896b",
}


def test_step_successors_up_to_renaming_pinned():
    digests = {e.name: _step_renaming_digest(e) for e in corpus.CORPUS}
    assert digests == PINNED_STEP_RENAMING_DIGESTS


def _differential_programs():
    """(name, program, entry function, depth) for each corpus entry and
    each test_features program."""
    from test_features import CASES

    for e in corpus.CORPUS:
        yield e.name, corpus.load(e.name), e.entry_fn, ENUM_DEPTH.get(e.name, 40)
    for name, src, fn, _, _ in CASES:
        yield name, parser.parse_program(src), fn, 40


def _derivations() -> dict[str, list[tuple[tuple, int]]]:
    """Per program, for each sampled input: (what the enumeration
    derives, its steps)."""
    rows: dict[str, list[tuple[tuple, int]]] = {}
    for name, prog, fn, depth in _differential_programs():
        system = translate.translate_program(prog, typeck.type_program(prog))
        pred = L.pred_name(fn, S.ENTRY)
        values = L.enumerate_values(system.sigs[pred][-1], ENUM_SPEC)
        rng = random.Random(zlib.crc32(name.encode()))
        for _ in range(ENUM_INPUTS):
            inputs = tuple(corpus.random_inputs(prog, fn, rng, ENUM_SPEC))
            out = sldc.enumerate_results(system, pred, inputs, depth=depth, width=ENUM_WIDTH,
                                         spec=ENUM_SPEC)
            covered = [V.show(w) for w in values if sldc.covers_value(out, w)]
            rows.setdefault(name, []).append(
                ((len(out.patterns), out.budget_exceeded, covered), out.steps))
    return rows


def test_ignoring_arguments_saves_steps_only(monkeypatch):
    merged = _derivations()
    monkeypatch.setattr(sldc, "ignored_positions", lambda index: {})
    plain = _derivations()
    assert merged.keys() == plain.keys() and len(plain) == len(corpus.CORPUS) + 6
    for name, rows in plain.items():
        assert [d for d, _ in merged[name]] == [d for d, _ in rows], name
        assert all(m <= p for (_, m), (_, p) in zip(merged[name], rows)), name
    assert sum(n for _, n in merged["linger_dec"]) < sum(n for _, n in plain["linger_dec"])


def _shown_enumerations() -> dict[str, list[tuple[tuple, int]]]:
    """Per program, for each sampled input: (the shown result patterns
    with their variables' sorts, the budget flag), and the steps."""
    rows: dict[str, list[tuple[tuple, int]]] = {}
    for name, prog, fn, depth in _differential_programs():
        system = translate.translate_program(prog, typeck.type_program(prog))
        pred = L.pred_name(fn, S.ENTRY)
        rng = random.Random(zlib.crc32(name.encode()))
        for _ in range(ENUM_INPUTS):
            inputs = tuple(corpus.random_inputs(prog, fn, rng, ENUM_SPEC))
            out = sldc.enumerate_results(system, pred, inputs, depth=depth, width=ENUM_WIDTH,
                                         spec=ENUM_SPEC)
            shown = [(V.show(p), sorted((x, S.type_text(s)) for x, s in sorts.items()))
                     for p, sorts in out.patterns]
            rows.setdefault(name, []).append(((shown, out.budget_exceeded), out.steps))
    return rows


def test_merging_integer_branches_saves_steps_only(monkeypatch):
    merged = _shown_enumerations()
    monkeypatch.setattr(sldc, "_branch_classes",
                        lambda name, body, rest, result, ignored, spec:
                        list(range(spec.int_hi, spec.int_lo - 1, -1)))
    full = _shown_enumerations()
    assert merged.keys() == full.keys() and len(full) == len(corpus.CORPUS) + 6
    for name, rows in full.items():
        assert [d for d, _ in merged[name]] == [d for d, _ in rows], name
        assert all(m <= f for (_, m), (_, f) in zip(merged[name], rows)), name
    assert sum(n for _, n in merged["linger_dec"]) < sum(n for _, n in full["linger_dec"])


def _raw_successor_digests(monkeypatch) -> dict[str, str]:
    """Per program of `_differential_programs`, SHA-256 over the raw
    successors of every `step` that `enumerate_results` takes on its
    sampled inputs: stack, result and sorts, fresh names and all."""
    real = sldc.step
    show_sort = functools.cache(repr)  # sorts are interned and shared by every successor

    def recording(*args, **kw):
        out = real(*args, **kw)
        for nxt in out:
            sorts = [(x, show_sort(s)) for x, s in sorted(nxt.sorts.items())]
            h.update(repr((nxt.stack, nxt.result, sorts)).encode())
        return out

    monkeypatch.setattr(sldc, "step", recording)
    digests = {}
    for name, prog, fn, depth in _differential_programs():
        system = translate.translate_program(prog, typeck.type_program(prog))
        pred = L.pred_name(fn, S.ENTRY)
        rng = random.Random(zlib.crc32(name.encode()))
        h = hashlib.sha256()
        for _ in range(ENUM_INPUTS):
            inputs = tuple(corpus.random_inputs(prog, fn, rng, ENUM_SPEC))
            sldc.enumerate_results(system, pred, inputs, depth=depth, width=ENUM_WIDTH,
                                   spec=ENUM_SPEC)
        digests[name] = h.hexdigest()
    monkeypatch.setattr(sldc, "step", real)
    return digests


def test_var_heads_step_as_general_unification(monkeypatch):
    heads = [c.var_head for _, system in _translations() for c in system.clauses if c.head]
    assert heads.count(None) < len(heads) / 2  # most heads take the variable-head path
    fast = _raw_successor_digests(monkeypatch)
    # without the per-clause fact every head goes through L.unify
    monkeypatch.setattr(L.Clause, "var_head", None)
    general = _raw_successor_digests(monkeypatch)
    assert fast == general and len(fast) == len(corpus.CORPUS) + 6
