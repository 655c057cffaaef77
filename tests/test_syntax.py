import copy
import pickle

import pytest

from corhorn import corpus, logic as L, parser, syntax as S, translate as T, typeck

from helpers import parse_type


LIST_T = parse_type("mu X. int * own X + unit")


def test_size_of_product():
    assert S.size_of(S.Prod(S.INT, S.INT)) == 2


def test_size_of_unit():
    assert S.size_of(S.UNIT) == 0


def test_size_of_list_type():
    # unfold once: 1 + max(1 + 1, 0)
    assert S.size_of(LIST_T) == 3


def test_size_of_pointers_and_bool():
    assert S.size_of(parse_type("own int")) == 1
    assert S.size_of(parse_type("mut<'a> (int * int)")) == 1
    assert S.size_of(S.BOOL) == 1


def test_size_of_agrees_on_unfolding():
    for t in (LIST_T, parse_type("mu X. int * (own X * own X) + unit")):
        assert S.size_of(t) == S.size_of(S.unfold(t))


def test_is_complete_guarded():
    assert S.is_complete(parse_type("mu X. own X"))
    assert S.is_complete(S.INT)
    assert S.is_complete(LIST_T)


def test_is_complete_unguarded_variable():
    t = S.Mu("X", S.Sum(S.TypeVar("X"), S.UNIT))
    assert not S.is_complete(t)


def test_is_complete_free_variable():
    assert not S.is_complete(S.TypeVar("X"))


def test_completeness_preserved_by_unfolding():
    for src in ("mu X. own X", "mu X. int * own X + unit"):
        t = parse_type(src)
        assert S.is_complete(S.unfold(t))


def test_size_of_incomplete_raises():
    with pytest.raises(S.IncompleteType):
        S.size_of(S.TypeVar("X"))


def test_canon_type_alpha_equivalence():
    a = parse_type("mu X. own X")
    b = parse_type("mu Y. own Y")
    assert a != b
    assert S.canon(a) == S.canon(b)
    c = parse_type("mu X. mu Y. own (X * Y)")
    d = parse_type("mu P. mu Q. own (P * Q)")
    assert S.canon(c) == S.canon(d)


def test_subst_type_capture_avoiding():
    # (mu Y. own (X * Y))[Y/X] must not capture the bound Y
    t = S.Mu("Y", S.own(S.Prod(S.TypeVar("X"), S.TypeVar("Y"))))
    out = S.subst(t, "X", S.TypeVar("Y"))
    assert isinstance(out, S.Mu)
    assert out.var != "Y"


def test_validate_function_rejects_missing_label():
    src = """
    fn f(x: own int) -> own int {
      entry: drop x; goto L9;
    }
    """
    with pytest.raises(S.CorError):
        parser.parse_program(src)


def test_validate_function_rejects_unreachable_label():
    src = """
    fn f(x: own int) -> own int {
      entry: return x;
      L1: return x;
    }
    """
    with pytest.raises(S.ProgramError, match="unreachable"):
        parser.parse_program(src)


def test_validate_rejects_duplicate_binders():
    src = """
    fn f(x: own (int * int)) -> own int {
      entry: let (*y, *y) = *x; goto L1;
      L1: return y;
    }
    """
    with pytest.raises(S.ProgramError, match="distinct"):
        parser.parse_program(src)


def test_validate_rejects_non_pointer_param():
    src = """
    fn f(x: int) -> own int {
      entry: return x;
    }
    """
    with pytest.raises(S.ProgramError, match="pointer"):
        parser.parse_program(src)


def test_call_to_undefined_function():
    src = """
    fn f(x: own int) -> own int {
      entry: let y = g(x); goto L1;
      L1: return y;
    }
    """
    with pytest.raises(S.ProgramError, match="undefined function"):
        parser.parse_program(src)


def test_unknown_function_is_a_cor_error():
    prog = corpus.load("inc_max")
    with pytest.raises(S.UnknownFunction) as exc:
        prog.fn("nope")
    assert isinstance(exc.value, S.CorError) and exc.value.code == "UnknownFunction"
    assert str(exc.value) == "[UnknownFunction] no function named 'nope'"


def test_types_and_sorts_are_interned():
    src = "mu X. own (int * mut<'a> X + unit)"
    t = parse_type(src)
    assert parse_type(src) is t
    assert T.sort_of_type(t) is T.sort_of_type(parse_type(src))
    assert S.Mu("X", L.BoxS(S.TypeVar("X"))) is S.Mu("X", L.BoxS(S.TypeVar("X")))
    ptr = S.Ptr(S.MUT, "a", S.INT)
    assert S.Ptr(kind=S.MUT, lft="a", target=S.INT) is ptr
    assert S.Ptr(S.MUT, target=S.INT, lft="a") is ptr
    for node in (t, ptr, S.INT, T.sort_of_type(t), L.BOOL_S):
        assert copy.copy(node) is node
        assert copy.deepcopy(node) is node
        assert pickle.loads(pickle.dumps(node)) is node


def test_interning_keeps_no_node_that_failed_its_check():
    for _ in range(2):
        with pytest.raises(AssertionError):
            S.Ptr(S.OWN, "a", S.INT)
    assert not [k for k in S._INTERNED if k[:3] == (S.Ptr, S.OWN, "a")]


def test_unfold_mu_substitutes_once(monkeypatch):
    calls = []
    subst = S.subst

    def counting(t, var, repl):
        calls.append(t)
        return subst(t, var, repl)

    monkeypatch.setattr(S, "subst", counting)
    t = S.Mu("Once", S.own(S.Sum(S.UNIT, S.TypeVar("Once"))))
    assert S.unfold(t) is S.unfold(t) is S.own(S.Sum(S.UNIT, t))
    assert calls.count(t.body) == 1


def test_subst_lifetimes_keys_on_own_lifetimes():
    t = parse_type("mut<'a> (immut<'b> int)")
    assert S.subst_lifetimes(S.INT, {"a": "c"}) is S.INT
    assert S.subst_lifetimes(t, {"x": "y"}) is t
    got = S.subst_lifetimes(t, {"a": "c", "x": "y"})
    assert got is parse_type("mut<'c> (immut<'b> int)")
    assert S.subst_lifetimes(t, {"a": "c"}) is got


def _context_types():
    """Every type in every label context of the corpus and the feature
    programs, with the targets of its pointers."""
    from test_features import CASES

    progs = [corpus.load(e.name) for e in corpus.CORPUS]
    progs += [parser.parse_program(src) for _, src, *_ in CASES]
    out = set()
    for prog in progs:
        for wc in typeck.type_program(prog).contexts.values():
            for vi in wc.gamma.values():
                t = vi.ty
                out.add(t)
                while isinstance(t, S.Ptr):
                    t = t.target
                    out.add(t)
    return out


def test_lifetime_erasure_commutes_with_binder_walks():
    types = _context_types()
    assert len(types) > 50
    for t in types:
        assert S.canon(T.sort_of_type(t)) is T.sort_of_type(S.canon(t)), t
        assert S.whnf(T.sort_of_type(t)) is T.sort_of_type(S.whnf(t)), t


def test_a_type_is_its_own_sort_exactly_when_it_holds_no_pointer():
    def holds_ptr(t):
        return isinstance(t, S.Ptr) or any(map(holds_ptr, S.children(t)))

    nodes, todo = set(), list(_context_types())
    while todo:
        t = todo.pop()
        if t not in nodes:
            nodes.add(t)
            todo += S.children(t)
    assert {holds_ptr(t) for t in nodes} == {True, False}
    for t in nodes:
        assert (T.sort_of_type(t) is t) == (not holds_ptr(t)), t


def test_subst_sort_capture_avoiding():
    # (mu Y. X * Y)[Y/X] must not capture the substituted Y
    s = S.Mu("Y", S.Prod(S.TypeVar("X"), S.TypeVar("Y")))
    out = S.subst(s, "X", S.TypeVar("Y"))
    assert isinstance(out, S.Mu)
    assert out.var != "Y"
    assert out.body.left is S.TypeVar("Y")


def test_subst_renames_binder_away_from_the_substituted_name():
    # renaming Y to make room for the substituted Y must not pick Y_,
    # the name being substituted for
    t = S.Mu("Y", S.own(S.Prod(S.TypeVar("X"), S.TypeVar("Y"))))
    assert S.canon(S.subst(t, "Y_", S.TypeVar("Y"))) is S.canon(t)


# a variable bound by a statement must be an ASCII identifier like every
# other name, or it would reach an SMT-LIB script as an illegal symbol
NON_ASCII_BINDERS = {
    "let": """
    fn f() -> own int {
      entry: let *é = 5; goto L1;
      L1: return é;
    }
    """,
    "destructuring": """
    fn f(x: own (int * int)) -> own int {
      entry: let (*é, *b) = *x; goto L1;
      L1: return b;
    }
    """,
    "match_arm": """
    fn f(x: own bool) -> own unit {
      entry: match *x { inj0 *a => goto L1, inj1 *é => goto L1 };
      L1: return x;
    }
    """,
}


@pytest.mark.parametrize("name", list(NON_ASCII_BINDERS))
def test_bound_variables_must_be_identifiers(name):
    with pytest.raises(S.InvalidName) as exc:
        parser.parse_program(NON_ASCII_BINDERS[name])
    assert str(exc.value) == "bad variable: 'é'"


def _hand_built(body):
    """One function f(x: own int) -> own int with the given body."""
    own_int = S.own(S.INT)
    return {"f": S.FunctionDef("f", (), (), (("x", own_int),), own_int, body)}


@pytest.mark.parametrize("functions, message", [
    (_hand_built({"entry": S.StmtInstr(S.Call("y", "g", (), ("x",)), "L1"), "L1": S.StmtReturn("y")}),
     "f:entry: call to undefined function 'g'"),
    (_hand_built({"entry": S.StmtReturn("x"), "L1": S.StmtReturn("x")}),
     "f: unreachable labels ['L1']"),
], ids=["undefined_call", "unreachable_label"])
def test_program_validates_itself_on_construction(functions, message):
    with pytest.raises(S.ProgramError) as exc:
        S.Program(functions)
    assert str(exc.value) == message
