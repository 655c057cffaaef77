import copy
import hashlib
import json
import random
from collections import Counter

import pytest

from corhorn import corpus, logic as L, syntax as S, translate, typeck, values as V
from corhorn.logic import Atom, CHCSystem, Clause, SampleSpec

from helpers import (
    LIST_SORT,
    eq_clause,
    inc_some_system,
    linger_dec_system,
    mklist,
    take_max_inc_max_system,
)


# -- sorts ---------------------------------------------------------------------


def test_sort_equiv_mu_unfolding():
    unfolded = S.subst(LIST_SORT.body, "X", LIST_SORT)
    assert L.sort_equiv(LIST_SORT, unfolded)
    assert L.sort_equiv(L.BoxS(LIST_SORT), L.BoxS(unfolded))
    assert not L.sort_equiv(LIST_SORT, L.BoxS(L.INT_S))


def test_sort_equiv_alpha():
    a = S.Mu("X", L.BoxS(S.TypeVar("X")))
    b = S.Mu("Y", L.BoxS(S.TypeVar("Y")))
    assert L.sort_equiv(a, b)


def test_sorts_print_in_the_type_grammar():
    # one printer for types and sorts: box and mut print as their keyword
    # before the pointee, under the type grammar's precedence
    assert S.type_text(LIST_SORT) == "mu X. int * box X + unit"
    assert S.type_text(L.MutS(L.BoxS(L.INT_S))) == "mut box int"
    assert S.type_text(L.BOOL_S) == "bool"
    with pytest.raises(L.IllSorted) as err:
        L.check_term({"x": L.MutS(L.BoxS(L.INT_S))}, V.Var("x"), LIST_SORT)
    assert str(err.value) == "term x has sort mut box int, expected mu X. int * box X + unit"


# -- term sorting ----------------------------------------------------------------


def test_sort_of_deref():
    delta = {"x": L.BoxS(L.INT_S)}
    assert L.sort_of_term(delta, V.DerefT(V.Var("x"))) == L.INT_S


def test_sort_of_final():
    delta = {"x": L.MutS(L.INT_S)}
    assert L.sort_of_term(delta, V.FinalT(V.Var("x"))) == L.INT_S


def test_sort_of_arith():
    assert L.sort_of_term({}, V.BinOpT(7, "+", 3)) == L.INT_S
    assert L.sort_of_term({}, V.BinOpT(7, ">=", 3)) == L.BOOL_S


def test_sort_of_inj_needs_expectation():
    with pytest.raises(L.IllSorted):
        L.sort_of_term({}, V.Inj(0, 3))
    L.check_term({}, V.Inj(0, 3), S.Sum(L.INT_S, L.UNIT_S))


def test_sort_check_through_mu():
    xs = mklist(1, 2)
    L.check_term({}, xs, LIST_SORT)
    assert L.check_value(xs, LIST_SORT)


def test_ill_sorted_reported():
    with pytest.raises(L.IllSorted):
        L.check_term({}, V.Box(3), L.INT_S)
    with pytest.raises(L.IllSorted):
        L.sort_of_term({}, V.DerefT(7))


# -- interpretation ---------------------------------------------------------------


def test_interpret_deref_box():
    assert L.interpret_term({}, V.DerefT(V.Box(7))) == 7


def test_interpret_final_of_mut():
    assert L.interpret_term({}, V.FinalT(V.MutPair(3, 9))) == 9


def test_interpret_projection():
    assert L.interpret_term({}, V.ProjT(V.Pair(4, 5), 1)) == 5


def test_interpret_arith_to_bool():
    assert L.interpret_term({}, V.BinOpT(4, ">=", 3)) == V.TRUE
    assert L.interpret_term({}, V.BinOpT(4, "+", 3)) == 7


def test_interpret_total_on_random_well_sorted_terms():
    rng = random.Random(7)
    spec = SampleSpec(-5, 5, max_depth=3)
    sorts = [L.INT_S, L.BoxS(L.INT_S), L.MutS(L.BOOL_S), LIST_SORT,
             S.Prod(L.INT_S, L.UNIT_S)]
    for _ in range(300):
        s = rng.choice(sorts)
        v = L.random_value(s, spec, rng)
        assert L.check_value(v, s)
        assert L.interpret_term({}, v) == v


def test_sort_classes_have_no_subclasses():
    # random_value dispatches on type(s) is C, which sees no subclass
    for cls in (S.IntT, S.UnitT, S.Sum, S.Prod, L.BoxS, L.MutS):
        assert cls.__subclasses__() == [], cls


def test_logic_defines_no_node_class_but_box_and_mut():
    # sorts are type nodes with box and mut pointers, not a node family
    # of their own
    family, todo = set(), [S.Interned]
    while todo:
        subs = todo.pop().__subclasses__()
        family.update(subs)
        todo += subs
    assert {cls for cls in family if cls.__module__ == L.__name__} == {L.BoxS, L.MutS}


@pytest.mark.parametrize("term", [
    V.Var("x"),
    V.Box(V.Var("x")),
    V.AbsVar(3, "p"),
    V.MutPair(1, V.AbsVar(3)),
    V.DerefT(V.Inj(0, 1)),
    V.DerefT(V.Pair(1, 2)),
    V.FinalT(V.Box(1)),
    V.ProjT(V.Box(1), 0),
    V.ProjT(V.Pair(1, V.Var("x")), 0),
    V.BinOpT(V.Inj(0, V.UNIT), "+", 1),
    V.BinOpT(1, "<", V.Box(2)),
    True,
    V.Pair(1, False),
    V.BinOpT(True, "+", 1),
], ids=V.show)
def test_interpret_undefined(term):
    # an unbound variable, even one a projection drops, an abstract
    # variable, a redex stuck on the wrong constructor and a leaked
    # Python bool have no value
    with pytest.raises(L.Undefined):
        L.interpret_term({"y": 0}, term)


# -- system well-sortedness -------------------------------------------------------


def test_fixture_systems_well_sorted():
    for builder in (take_max_inc_max_system, linger_dec_system, inc_some_system):
        sys, _ = builder()
        L.well_sorted_system(sys)


def test_unknown_predicate_rejected():
    sys = CHCSystem(
        [Clause((("x", L.INT_S),), Atom("p", (V.Var("x"),)), (Atom("q", (V.Var("x"),)),))],
        {"p": (L.INT_S,)},
    )
    with pytest.raises(L.IllSorted, match="unknown predicate"):
        L.well_sorted_system(sys)


def test_arity_mismatch_rejected():
    sys = CHCSystem(
        [Clause((("x", L.INT_S),), Atom("p", (V.Var("x"), V.Var("x"))), ())],
        {"p": (L.INT_S,)},
    )
    with pytest.raises(L.IllSorted, match="applied to"):
        L.well_sorted_system(sys)


def test_head_must_be_pattern():
    sys = CHCSystem(
        [Clause((("x", L.BoxS(L.INT_S)),), Atom("p", (V.DerefT(V.Var("x")),)), ())],
        {"p": (L.INT_S,)},
    )
    with pytest.raises(L.IllSorted, match="not a pattern"):
        L.well_sorted_system(sys)


def test_equality_clause():
    name = "eq!int"
    sys = CHCSystem([eq_clause(name, L.INT_S)], {name: (L.INT_S, L.INT_S)})
    L.well_sorted_system(sys)
    verdict = L.check_model_sampled(sys, {name: lambda args: args[0] == args[1]})
    assert not verdict.violated
    bad = L.check_model_sampled(sys, {name: lambda args: False})
    assert bad.violated


# -- model checking ----------------------------------------------------------------


def test_take_max_model_validates():
    sys, model = take_max_inc_max_system()
    verdict = L.check_model_sampled(sys, model, SampleSpec(-5, 5), budget=4000)
    assert not verdict.violated, (verdict.clause, verdict.valuation)


def test_take_max_countermodel_detected():
    sys, model = take_max_inc_max_system()
    broken = dict(model)
    broken["IncMax"] = lambda args: True  # accepts r=false rows too
    verdict = L.check_model_sampled(sys, broken, SampleSpec(-3, 3), budget=4000)
    assert verdict.violated
    assert verdict.clause.tag == ("goal",)


MODEL_CHECK_PINS = {
    # system: (checked, violated)
    "take_max/inc_max": (10607, False),
    "choose/linger_dec": (11113, False),
    "take_some/sum/inc_some": (11461, False),
}
MODEL_CHECK_SHA256 = "62b52919bfacfe4cfc9fbfe3b945e67f53910e193b821c2c6606f48e6b36636f"


def test_model_check_valuations_pinned(monkeypatch):
    # every valuation the criterion-7 checks try, in order: a change to
    # how they are enumerated or drawn must leave each one as it was
    seen = []
    real = L._clause_holds

    def recorded(model, clause, valuation):
        seen.append((clause.tag, [(x, V.show(v)) for x, v in sorted(valuation.items())]))
        return real(model, clause, valuation)

    monkeypatch.setattr(L, "_clause_holds", recorded)
    got = {}
    for name, builder in (
        ("take_max/inc_max", take_max_inc_max_system),
        ("choose/linger_dec", linger_dec_system),
        ("take_some/sum/inc_some", inc_some_system),
    ):
        sys, model = builder()
        verdict = L.check_model_sampled(sys, model, SampleSpec(-8, 8, max_depth=4), budget=200, seed=7)
        got[name] = (verdict.checked, verdict.violated)
    assert got == MODEL_CHECK_PINS
    assert len(seen) == sum(checked for checked, _ in got.values())
    assert hashlib.sha256(json.dumps(seen).encode()).hexdigest() == MODEL_CHECK_SHA256


def test_query_clause_head_none():
    sys = CHCSystem(
        [Clause((("x", L.INT_S),), None, (Atom("p", (V.Var("x"),)),))],
        {"p": (L.INT_S,)},
    )
    ok = L.check_model_sampled(sys, {"p": lambda args: False}, SampleSpec(-2, 2))
    assert not ok.violated
    bad = L.check_model_sampled(sys, {"p": lambda args: args[0] == 1}, SampleSpec(-2, 2))
    assert bad.violated


# -- unification --------------------------------------------------------------------


def test_unify_box_against_inj():
    out = L.unify((V.Box(V.Var("x")),), (V.Box(V.Inj(1, V.Var("y"))),))
    assert out is not None
    assert out["x"] == V.Inj(1, V.Var("y"))


def test_unify_constants():
    assert L.unify((7,), (8,)) is None
    assert L.unify((7,), (7,)) == {}


def test_unify_call_pattern():
    # mut pair argument against a clause head taking it apart
    left = (V.MutPair(V.Var("a"), V.Var("ao")), V.Var("r"))
    right = (V.MutPair(V.Var("x"), V.Var("xo")), V.MutPair(V.Var("x"), V.Var("xo")))
    out = L.unify(left, right)
    assert out is not None
    assert L.subst_reduce(left[1], out) == L.subst_reduce(right[1], out)


def test_unify_nonlinear():
    # the same clause variable twice forces both positions equal
    out = L.unify((V.MutPair(5, V.Var("p")),), (V.MutPair(V.Var("c"), V.Var("c")),))
    assert out is not None
    assert out["p"] == 5
    assert L.unify((V.MutPair(5, 6),), (V.MutPair(V.Var("c"), V.Var("c")),)) is None


def test_unify_occurs_check():
    assert L.unify((V.Var("x"),), (V.Box(V.Var("x")),)) is None


def test_unify_is_idempotent():
    # a -> box(c), c -> box(b), b -> <d, 3>: each binding leads to the next
    ps = (V.Var("a"), V.Box(V.Var("b")), V.Var("b"))
    qs = (V.Box(V.Var("c")), V.Var("c"), V.Pair(V.Var("d"), 3))
    out = L.unify(ps, qs)
    assert out is not None and set(out) == {"a", "b", "c"}
    assert out["a"] == V.Box(V.Box(V.Pair(V.Var("d"), 3)))
    for value in out.values():
        assert not V.vars_in(value) & set(out)
    assert [L.subst_reduce(p, out) for p in ps] == [L.subst_reduce(q, out) for q in qs]


def test_resolve_returns_unchanged_terms_themselves():
    x, y = V.Var("x"), V.Var("y")
    ground = V.Pair(V.Box(3), V.Inj(0, V.UNIT))
    partial = V.Pair(V.Var("z"), V.MutPair(y, 4))
    out = L.unify((x, y, V.Var("w")), (ground, V.Box(5), partial))
    assert out["x"] is ground
    # only the path down to the bound y is rebuilt
    assert out["w"] == V.Pair(V.Var("z"), V.MutPair(V.Box(5), 4))
    assert out["w"].fst is partial.fst
    assert L.resolve(partial, {"q": 1}) is partial


# -- refinement ---------------------------------------------------------------------


def test_refines_to():
    assert L.refines_to(V.Box(V.Var("x")), V.Box(4))
    assert L.refines_to(V.MutPair(V.Var("x"), V.Var("x")), V.MutPair(4, 4))
    assert not L.refines_to(V.MutPair(V.Var("x"), V.Var("x")), V.MutPair(4, 5))
    assert not L.refines_to(V.Inj(0, V.Var("x")), V.Inj(1, V.UNIT))


def test_match_into_itself_binds_each_variable_to_itself():
    x, y = V.Var("x"), V.Var("y")
    p = V.Pair(V.MutPair(x, V.Box(y)), V.Inj(0, V.Pair(x, V.Box(y))))
    m: dict = {}
    assert L.match_into(p, p, m) and list(m.items()) == [("x", x), ("y", y)]
    assert m["x"] is x and m["y"] is y
    m = {"y": V.Var("y"), "z": 5}
    assert L.match_into(p, p, m) and m == {"y": y, "z": 5, "x": x}
    for taken in (V.Var("w"), 3, V.Box(y)):
        assert not L.match_into(p, p, {"y": taken})
    closed = V.Pair(V.Box(3), V.Inj(1, V.UNIT))
    m = {"x": 7}
    assert L.match_into(closed, closed, m) and m == {"x": 7}


def _random_pattern(rng, depth):
    pick = rng.randrange(7 if depth else 3)
    if pick == 0:
        return V.Var(rng.choice("xyz"))
    if pick == 1:
        return rng.randrange(-2, 3)
    if pick == 2:
        return V.UNIT
    if pick == 3:
        return V.Box(_random_pattern(rng, depth - 1))
    if pick == 4:
        return V.Inj(rng.randrange(2), _random_pattern(rng, depth - 1))
    make = V.MutPair if pick == 5 else V.Pair
    return make(_random_pattern(rng, depth - 1), _random_pattern(rng, depth - 1))


def test_match_into_itself_agrees_with_a_structural_match():
    # the identity path gives the verdict and the binding, in its order,
    # that matching against an equal copy built apart gives
    rng = random.Random(24)
    seen = Counter()
    for _ in range(600):
        p = _random_pattern(rng, 4)
        pre = {x: rng.choice([V.Var(x), V.Var("w"), 1, V.Box(V.Var(x))])
               for x in "xyz" if rng.random() < 0.3}
        mine, apart = dict(pre), dict(pre)
        ok = L.match_into(p, p, mine)
        assert ok == L.match_into(p, copy.deepcopy(p), apart)
        assert list(mine.items()) == list(apart.items())
        seen[ok, V.is_closed(p), bool(pre)] += 1
    assert min(seen[k] for k in [(True, True, False), (True, False, False), (True, False, True),
                                 (False, False, True)]) > 10, seen


def test_refine_default():
    out = L.refine_default(V.Box(V.Var("x")), {"x": LIST_SORT})
    assert V.is_value(out)
    assert L.check_value(out, L.BoxS(LIST_SORT))


def test_default_value_is_the_first_enumerated_value():
    # every signature sort of the translated corpus, and a sort with no
    # value within the default depth
    sorts = {}
    for e in corpus.CORPUS:
        prog = corpus.load(e.name)
        for sig in translate.translate_program(prog, typeck.type_program(prog)).sigs.values():
            sorts.update((S.canon(s), s) for s in sig)
    deep = L.UNIT_S
    for _ in range(6):
        deep = S.Sum(deep, deep)
    for s in [*sorts.values(), deep]:
        d = SampleSpec().max_depth
        while not (values := L.enumerate_values(s, SampleSpec(0, 0, d))):
            d += 1
        assert L.default_value(s) == values[0], s
    assert len(sorts) > 20 and d == 6


def test_enumerate_count_agree():
    spec = SampleSpec(-2, 2, max_depth=3)
    for s in (L.INT_S, L.BoxS(L.BOOL_S), LIST_SORT, L.MutS(L.INT_S)):
        assert len(L.enumerate_values(s, spec)) == L.count_values(s, spec)
