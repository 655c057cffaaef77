import hashlib

import pytest

from corhorn import corpus, logic as L, parser, smtlib, syntax as S, translate as T, typeck, values as V
from corhorn.logic import Atom, Clause

from helpers import map_term_fields, sort_key
from helpers import parse_type as Ty


# -- sort erasure -----------------------------------------------------------


def test_sort_of_type_strips_lifetimes():
    assert T.sort_of_type(Ty("mut<'a> int")) == L.MutS(L.INT_S)
    assert T.sort_of_type(Ty("immut<'a> (own int)")) == L.BoxS(L.BoxS(L.INT_S))
    assert T.sort_of_type(Ty("own int")) == L.BoxS(L.INT_S)


def test_sort_of_type_mu_congruence():
    got = T.sort_of_type(Ty("mu X. int * own X + unit"))
    want = S.Mu("X", S.Sum(S.Prod(L.INT_S, L.BoxS(S.TypeVar("X"))), L.UNIT_S))
    assert got == want


# -- signatures ---------------------------------------------------------------


@pytest.fixture(scope="module")
def inc_max_setup():
    prog = corpus.load("inc_max")
    typing = typeck.type_program(prog)
    return prog, typing, T.translate_program(prog, typing)


def test_take_max_entry_signature(inc_max_setup):
    prog, typing, sys = inc_max_setup
    sorts = sys.sigs["take_max!entry"]
    head = T.label_atom(typing, "take_max", "entry", {})
    assert sorts == (L.MutS(L.INT_S), L.MutS(L.INT_S), L.MutS(L.INT_S))
    assert head == Atom("take_max!entry", (V.Var("ma"), V.Var("mb"), V.Var("res")))
    # a given term stands, falsy ones (int 0) included; a missing name stands for itself
    given = V.MutPair(0, V.Var("x"))
    atom = T.label_atom(typing, "take_max", "entry", {"mb": given, T.RES: 0})
    assert atom == Atom("take_max!entry", (V.Var("ma"), given, 0)) and atom.args[1] is given


def test_result_only_signature():
    src = """
    fn f() -> own bool {
      entry: let *u = (); goto L1;
      L1: let *r = inj1<bool> *u; goto L2;
      L2: return r;
    }
    """
    prog = parser.parse_program(src)
    typing = typeck.type_program(prog)
    sorts = T.translate_program(prog, typing).sigs["f!entry"]
    head = T.label_atom(typing, "f", "entry", {})
    assert sorts == (L.BoxS(L.BOOL_S),)
    assert head.args == (V.Var("res"),)


def test_inc_max_l4_signature(inc_max_setup):
    prog, typing, sys = inc_max_setup
    sorts = sys.sigs["inc_max!L4"]
    # {mc, oa, ob} sorted + result
    assert sorts == (
        L.MutS(L.INT_S), L.BoxS(L.INT_S), L.BoxS(L.INT_S), L.BoxS(L.BOOL_S)
    )


# -- clause goldens --------------------------------------------------------------


def clause_canon(c: Clause):
    """Clause identity up to binder order and variable renaming."""
    mapping = {}

    def walk(t):
        if isinstance(t, V.Var):
            if t.name not in mapping:
                mapping[t.name] = f"v{len(mapping)}"
            return V.Var(mapping[t.name])
        return map_term_fields(t, walk)

    atoms = []
    for atom in ((c.head,) if c.head else ()) + c.body:
        atoms.append((atom.pred, tuple(V.show(walk(a)) for a in atom.args)))
    sorts = tuple(
        sorted(S.type_text(S.canon(s)) for x, s in c.binders if x in mapping)
    )
    return tuple(atoms), sorts


MI = L.MutS(L.INT_S)
BB = L.BoxS(L.BOOL_S)
BU = L.BoxS(L.UNIT_S)


def expected_take_max_clauses():
    v = V.Var
    m = V.MutPair

    def atom(label, args):
        return Atom(f"take_max!{label}", tuple(args))

    bind_base = (("ma", MI), ("mb", MI), ("res", MI))
    return [
        Clause(bind_base, atom("entry", [v("ma"), v("mb"), v("res")]),
               (atom("L1", [v("ma"), v("mb"),
                            V.Box(V.BinOpT(V.DerefT(v("ma")), ">=", V.DerefT(v("mb")))),
                            v("res")]),)),
        Clause(bind_base + (("w", L.UNIT_S),),
               atom("L1", [v("ma"), v("mb"), V.Box(V.Inj(0, v("w"))), v("res")]),
               (atom("L5", [v("ma"), v("mb"), V.Box(v("w")), v("res")]),)),
        Clause(bind_base + (("w", L.UNIT_S),),
               atom("L1", [v("ma"), v("mb"), V.Box(V.Inj(1, v("w"))), v("res")]),
               (atom("L2", [v("ma"), v("mb"), V.Box(v("w")), v("res")]),)),
        Clause(bind_base + (("ou", BU),),
               atom("L2", [v("ma"), v("mb"), v("ou"), v("res")]),
               (atom("L3", [v("ma"), v("mb"), v("res")]),)),
        Clause(bind_base + (("w", L.INT_S),),
               atom("L3", [v("ma"), m(v("w"), v("w")), v("res")]),
               (atom("L4", [v("ma"), v("res")]),)),
        Clause((("ma", MI), ("res", MI)),
               atom("L4", [v("ma"), v("ma")]), ()),
        Clause(bind_base + (("ou", BU),),
               atom("L5", [v("ma"), v("mb"), v("ou"), v("res")]),
               (atom("L6", [v("ma"), v("mb"), v("res")]),)),
        Clause(bind_base + (("w", L.INT_S),),
               atom("L6", [m(v("w"), v("w")), v("mb"), v("res")]),
               (atom("L7", [v("mb"), v("res")]),)),
        Clause((("mb", MI), ("res", MI)),
               atom("L7", [v("mb"), v("mb")]), ()),
    ]


def test_take_max_nine_clause_golden(inc_max_setup):
    _, _, sys = inc_max_setup
    got = [c for c in sys.clauses if c.tag[0] == "take_max"]
    assert len(got) == 9
    want = expected_take_max_clauses()
    got_canon = sorted(map(clause_canon, got))
    want_canon = sorted(map(clause_canon, want))
    assert got_canon == want_canon


def test_clause_counts(inc_max_setup):
    prog, _, sys = inc_max_setup
    by_fn = {}
    for c in sys.clauses:
        by_fn.setdefault(c.tag[0], []).append(c)
    assert len(by_fn["take_max"]) == 9
    assert len(by_fn["inc_max"]) == 15
    # one clause per labeled statement, one extra per match
    for name, fn in prog.functions.items():
        matches = sum(isinstance(s, S.StmtMatch) for s in fn.body.values())
        assert len(by_fn[name]) == len(fn.body) + matches


def test_translation_well_sorted_everywhere():
    for e in corpus.CORPUS:
        prog = corpus.load(e.name)
        sys = T.translate_program(prog)
        L.well_sorted_system(sys)


def test_return_clause_example(inc_max_setup):
    prog, typing, _ = inc_max_setup
    stmt = prog.fn("take_max").body["L4"]
    (clause,) = T.clauses_for_label(prog, typing, "take_max", "L4", stmt)
    assert clause.head == Atom("take_max!L4", (V.Var("ma"), V.Var("ma")))
    assert clause.body == ()


def test_drop_mut_clause_example(inc_max_setup):
    prog, typing, _ = inc_max_setup
    stmt = prog.fn("take_max").body["L3"]
    (clause,) = T.clauses_for_label(prog, typing, "take_max", "L3", stmt)
    assert clause.head.args[1] == V.MutPair(V.Var("mb!c"), V.Var("mb!c"))
    assert clause.body[0].pred == "take_max!L4"


def test_rand_clause_example():
    prog = corpus.load("just_rec")
    typing = typeck.type_program(prog)
    stmt = prog.fn("just_rec").body["entry"]
    (clause,) = T.clauses_for_label(prog, typing, "just_rec", "entry", stmt)
    head_vars = set()
    for a in clause.head.args:
        head_vars |= V.vars_in(a)
    assert "t" not in head_vars
    body_vars = set()
    for a in clause.body[0].args:
        body_vars |= V.vars_in(a)
    assert "t" in body_vars  # the draw appears only in the successor atom


def test_call_clause_threads_receiver(inc_max_setup):
    prog, typing, _ = inc_max_setup
    stmt = prog.fn("inc_max").body["L3"]
    (clause,) = T.clauses_for_label(prog, typing, "inc_max", "L3", stmt)
    assert [a.pred for a in clause.body] == ["take_max!entry", "inc_max!L4"]
    assert clause.body[0].args[-1] == V.Var("mc")


def test_lifetime_erasure():
    src = corpus.source_path("inc_max").read_text()
    renamed = src.replace("'a", "'zz")
    a = T.translate_program(parser.parse_program(src))
    b = T.translate_program(parser.parse_program(renamed))
    assert [clause_canon(c) for c in a.clauses] == [clause_canon(c) for c in b.clauses]
    assert a.sigs == b.sigs


def test_mu_types_translate_and_check():
    prog = corpus.load("inc_some")
    sys = T.translate_program(prog)
    L.well_sorted_system(sys)
    entry_sig = sys.sigs["take_some!entry"]
    assert isinstance(entry_sig[0], L.MutS)
    assert isinstance(entry_sig[0].inner, S.Mu)
    # the unfolded context type at L1 is sort-equivalent to the folded one
    l1_sig = sys.sigs["take_some!L1"]
    assert L.sort_equiv(l1_sig[0], entry_sig[0])


# -- the system recorded on the typing ------------------------------------------


def test_system_is_recorded_on_the_typing(monkeypatch):
    # the same program and typing give the same system without translating
    # again; an equal program parsed again, or no typing, translates afresh
    src = corpus.source_path("inc_max").read_text()
    prog = parser.parse_program(src)
    typing = typeck.type_program(prog)
    sys = T.translate_program(prog, typing)
    calls = []
    real = T.clauses_for_label
    monkeypatch.setattr(T, "clauses_for_label", lambda *a: calls.append(a[3]) or real(*a))
    assert T.translate_program(prog, typing) is sys and not calls
    labels = sum(len(fn.body) for fn in prog)

    again = parser.parse_program(src)
    assert again == prog and again is not prog
    fresh = T.translate_program(again, typing)
    assert fresh is not sys and fresh == sys and len(calls) == labels
    assert fresh.clauses[0] is not sys.clauses[0]

    del calls[:]
    cold = [T.translate_program(prog) for _ in range(2)]
    assert cold[0] is not cold[1] and cold[0] == cold[1] == sys
    assert len(calls) == 2 * labels


SHARED_GOALS_SRC = """
fn t() -> own bool {
  entry: let *u = (); goto L1;
  L1: let *r = inj1<bool> *u; goto L2;
  L2: return r;
}
fn f(x: own int) -> own int {
  entry: return x;
}
"""


def test_recorded_system_is_not_changed_by_its_users():
    # attaching a goal of either kind, emitting and rendering leave the
    # recorded system as a fresh translation, so a goal attached on a warm
    # typing cannot change a later check under it
    prog = parser.parse_program(SHARED_GOALS_SRC)
    typing = typeck.type_program(prog)
    sys = T.translate_program(prog, typing)
    n_clauses, n_sigs = len(sys.clauses), len(sys.sigs)
    for goal in ("t returns true", "f equals box(7)"):
        out = T.attach_goal(sys, prog, T.GoalSpec.parse(goal))
        assert len(out.clauses) > n_clauses and len(out.sigs) > n_sigs
        smtlib.emit_smt2(out)
    smtlib.emit_smt2(sys)
    T.render_system(sys)
    assert T.translate_program(prog, typing) is sys
    fresh = T.translate_program(prog)
    assert sys.clauses == fresh.clauses and sys.sigs == fresh.sigs
    assert (len(sys.clauses), len(sys.sigs)) == (n_clauses, n_sigs) == (len(fresh.clauses), len(fresh.sigs))


# -- goals -------------------------------------------------------------------


def test_attach_goal_returns_true(inc_max_setup):
    prog, _, sys = inc_max_setup
    out = T.attach_goal(sys, prog, T.GoalSpec.parse("inc_max returns true"))
    L.well_sorted_system(out)
    assert T.GOAL_PRED in out.sigs
    queries = [c for c in out.clauses if c.head is None]
    assert len(queries) == 1
    goal_clauses = [c for c in out.clauses if c.head and c.head.pred == T.GOAL_PRED]
    (gc,) = goal_clauses
    assert gc.body[0].pred == "inc_max!entry"
    assert gc.body[0].args[-1] == V.Box(V.Inj(0, V.Var("u!0")))


def test_attach_goal_equals():
    src = """
    fn f(x: own int) -> own int {
      entry: return x;
    }
    """
    prog = parser.parse_program(src)
    sys = T.translate_program(prog)
    out = T.attach_goal(sys, prog, T.GoalSpec.parse("f equals box(7)"))
    L.well_sorted_system(out)
    assert T.IS_TRUE_PRED in out.sigs


def test_attach_goal_rejects_non_simple(inc_max_setup):
    prog, _, sys = inc_max_setup
    with pytest.raises(T.TranslateError) as e:
        T.attach_goal(sys, prog, T.GoalSpec.parse("take_max returns true"))
    assert e.value.code == "UnsupportedGoalShape"


def test_attach_goal_rejects_wrong_result_sort():
    src = "fn f(x: own int) -> own int { entry: return x; }"
    prog = parser.parse_program(src)
    sys = T.translate_program(prog)
    with pytest.raises(T.TranslateError):
        T.attach_goal(sys, prog, T.GoalSpec.parse("f returns true"))


def test_goal_spec_parse_errors():
    with pytest.raises(T.TranslateError):
        T.GoalSpec.parse("whatever nonsense here extra")


def test_render_system_stable(inc_max_setup):
    _, _, sys = inc_max_setup
    a = T.render_system(sys)
    b = T.render_system(sys)
    assert a == b
    assert "take_max!L4(ma, ma) <= true" in a


def test_empty_program_empty_system():
    from corhorn import parser

    sys = T.translate_program(parser.parse_program(""))
    assert sys.clauses == [] and sys.sigs == {}


def test_entry_lifetime_constraints_transitively_closed():
    src = """
    fn f<'a, 'b, 'c | 'a <= 'b, 'b <= 'c>(x: mut<'a> int) -> mut<'a> int {
      entry: return x;
    }
    """
    from corhorn import parser

    prog = parser.parse_program(src)
    typing = typeck.type_program(prog)
    lctx = typing.ctx("f", "entry").lft
    assert lctx.leq("a", "c")


def test_goal_attachment_well_sorted_for_all_corpus():
    for e in corpus.CORPUS:
        prog = corpus.load(e.name)
        sys = T.attach_goal(T.translate_program(prog), prog, T.GoalSpec.parse(e.goal))
        L.well_sorted_system(sys)


# -- pinned translations of the feature programs ------------------------------

# The corpus has no `let *y = x`, `(*x0, *x1)`, `'a <= 'b`, mut swap or
# deref of a mut-of-mut / mut-of-immut; the feature programs do.  The
# digest covers each clause's tag, binders (names, order, `sort_key`s)
# and rendered text, then the SMT-LIB script.
FEATURE_TRANSLATION_SHA256 = {
    "swap_mm": "d376d93342c1f2ec3ef64617af7e081749d602e456214f6e99d70e2b603cb114",
    "dup_imm": "ae5caf9eee595739606a918abda87587853199c0befeccef075e142e22375fe8",
    "read_thru": "06e3ef5795bf16cef6990b88d0af8e895bb28f2317024a2b1c0f4cea437b67dd",
    "read_imm": "c5fc500d9eda91bdcfe7f5756e35e114811875081dbe095c6ac67c231455ebac",
    "pair_mut": "dc35f0e7c61abf33f059497dff2f519a7e04fb6a6ecdab3d42ec33eafe35a7b9",
    "build_and_sum": "424a9e169756cc6d72a36bcf26961803e07c0bfd6678286c96bdfd12362c600c",
}


def _feature_digest(src: str) -> str:
    sys = T.translate_program(parser.parse_program(src))
    h = hashlib.sha256()
    for c in sys.clauses:
        binders = tuple((x, sort_key(s)) for x, s in c.binders)
        h.update(f"{c.tag!r} {binders!r} {T.render_clause(c)}\n".encode())
    h.update(smtlib.emit_smt2(sys).encode())
    return h.hexdigest()


def test_feature_translations_pinned():
    from test_features import CASES

    assert {c[0] for c in CASES} == set(FEATURE_TRANSLATION_SHA256)
    for name, src, *_ in CASES:
        assert _feature_digest(src) == FEATURE_TRANSLATION_SHA256[name], name
