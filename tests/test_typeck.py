import hashlib
import json

import pytest

from corhorn import corpus, parser, syntax as S, typeck
from corhorn.typeck import LftCtx, TypeCheckError, VarInfo, WholeCtx

from helpers import HASH_SEEDS, python_under_hash_seed
from helpers import parse_type as T


LCTX_AB = LftCtx.make(["a", "b"], [("a", "b")])
LCTX_A = LftCtx.make(["a"], [])


# -- subtyping ---------------------------------------------------------------


def test_subtype_reflexive_on_samples():
    samples = [
        T("own int"), T("mut<'a> int"), T("immut<'b> (own int)"),
        T("mu X. own X"), T("own (mu X. int * own X + unit)"),
        T("own (int + unit)"),
    ]
    for t in samples:
        assert typeck.subtype(LCTX_AB, t, t)


def test_subtype_mu_unfold_both_ways():
    t = T("mu X. own X")
    u = S.own(t)  # one unfolding
    assert typeck.subtype(LCTX_A, t, u)
    assert typeck.subtype(LCTX_A, u, t)


def test_subtype_immut_lifetime_weakening():
    # 'a ends no later than 'b, so a borrow until 'b weakens to one until 'a
    assert typeck.subtype(LCTX_AB, T("immut<'b> int"), T("immut<'a> int"))
    assert not typeck.subtype(LCTX_AB, T("immut<'a> int"), T("immut<'b> int"))
    incomparable = LftCtx.make(["a", "b"], [])
    assert not typeck.subtype(incomparable, T("immut<'b> int"), T("immut<'a> int"))


def test_subtype_mut_invariant_in_target():
    assert typeck.subtype(LCTX_AB, T("mut<'b> int"), T("mut<'a> int"))
    # mut targets must be equivalent, not just one-way
    assert not typeck.subtype(
        LCTX_AB, T("mut<'b> (immut<'b> int)"), T("mut<'b> (immut<'a> int)")
    )
    # immut targets weaken covariantly
    assert typeck.subtype(
        LCTX_AB, T("immut<'b> (immut<'b> int)"), T("immut<'a> (immut<'a> int)")
    )


def test_subtype_transitive_on_sampled_triples():
    pool = [
        T("immut<'b> int"), T("immut<'a> int"), T("own int"),
        T("own (immut<'b> int)"), T("own (immut<'a> int)"),
        T("mu X. own X"), S.own(T("mu X. own X")),
    ]
    for t in pool:
        for u in pool:
            for w in pool:
                if typeck.subtype(LCTX_AB, t, u) and typeck.subtype(LCTX_AB, u, w):
                    assert typeck.subtype(LCTX_AB, t, w)


def test_type_equiv_is_equivalence_on_samples():
    pool = [T("mu X. own X"), S.own(T("mu X. own X")), T("own int"), T("mut<'a> int")]
    for t in pool:
        assert typeck.type_equiv(LCTX_AB, t, t)
        for u in pool:
            if typeck.type_equiv(LCTX_AB, t, u):
                assert typeck.type_equiv(LCTX_AB, u, t)


# -- Copy --------------------------------------------------------------------


def test_is_copy_base():
    assert typeck.is_copy(S.INT)
    assert typeck.is_copy(S.UNIT)
    assert typeck.is_copy(T("immut<'a> int"))
    assert not typeck.is_copy(T("mut<'a> int"))
    assert not typeck.is_copy(T("own int"))


def test_is_copy_congruence():
    assert typeck.is_copy(T("mu X. (immut<'a> int * immut<'a> int) + unit"))
    assert not typeck.is_copy(T("mu X. (immut<'a> int * own int) + unit"))


# -- instruction typing -------------------------------------------------------


def wc(gamma, lctx=LCTX_A):
    return WholeCtx(gamma, lctx)


def prog_empty():
    return parser.parse_program("")


def fn_stub(lfts=("a",)):
    return S.FunctionDef("f", tuple(lfts), (), (), S.own(S.INT), {"entry": S.StmtReturn("x")})


def test_mutbor_freezes_lender():
    fn = S.FunctionDef("f", (), (), (), S.own(S.INT), {"entry": S.StmtReturn("x")})
    ctx = wc({"x": VarInfo(T("own int"))}, LftCtx.make(["a"], []))
    out = typeck.type_instruction(prog_empty(), fn, S.MutBor("y", "a", "x"), ctx)
    assert out.gamma["y"] == VarInfo(T("mut<'a> int"))
    assert out.gamma["x"] == VarInfo(T("own int"), frozen_at="a")


def test_mutbor_rejects_lifetime_parameter():
    fn = fn_stub()
    ctx = wc({"x": VarInfo(T("own int"))})
    with pytest.raises(TypeCheckError) as e:
        typeck.type_instruction(prog_empty(), fn, S.MutBor("y", "a", "x"), ctx)
    assert e.value.code == "LifetimeParamBorrow"


def test_mutbor_rejects_frozen():
    fn = S.FunctionDef("f", (), (), (), S.own(S.INT), {"entry": S.StmtReturn("x")})
    ctx = wc({"x": VarInfo(T("own int"), frozen_at="a")}, LftCtx.make(["a"], []))
    with pytest.raises(TypeCheckError) as e:
        typeck.type_instruction(prog_empty(), fn, S.MutBor("y", "a", "x"), ctx)
    assert e.value.code == "BorrowOfFrozen"


def test_mutbor_respects_data_lifetime():
    # borrowing data that only lives until 'a, at a longer 'b, is rejected
    fn = S.FunctionDef("f", (), (), (), S.own(S.INT), {"entry": S.StmtReturn("x")})
    lctx = LftCtx.make(["a", "b"], [("a", "b")])
    ctx = wc({"x": VarInfo(T("mut<'a> int"))}, lctx)
    with pytest.raises(TypeCheckError) as e:
        typeck.type_instruction(prog_empty(), fn, S.MutBor("y", "b", "x"), ctx)
    assert e.value.code == "BorrowOutlivesData"
    out = typeck.type_instruction(prog_empty(), fn, S.MutBor("y", "a", "x"), ctx)
    assert out.gamma["y"].ty == T("mut<'a> int")


def test_now_thaws_and_removes_lifetime():
    fn = S.FunctionDef("f", (), (), (), S.own(S.INT), {"entry": S.StmtReturn("x")})
    ctx = wc(
        {"x": VarInfo(T("own int"), frozen_at="a"), "y": VarInfo(T("mut<'a> int"))},
        LftCtx.make(["a"], []),
    )
    out = typeck.type_instruction(prog_empty(), fn, S.NowLft("a"), ctx)
    assert out.gamma["x"].active
    assert "a" not in out.lft.carrier


def test_deref_composition():
    fn = fn_stub(("a", "b"))
    ctx = wc({"x": VarInfo(T("mut<'a> (immut<'b> int)"))}, LCTX_AB)
    out = typeck.type_instruction(prog_empty(), fn, S.Deref("y", "x"), ctx)
    assert out.gamma["y"].ty == T("immut<'a> int")
    ctx2 = wc({"x": VarInfo(T("mut<'a> (mut<'b> int)"))}, LCTX_AB)
    out2 = typeck.type_instruction(prog_empty(), fn, S.Deref("y", "x"), ctx2)
    assert out2.gamma["y"].ty == T("mut<'a> int")
    ctx3 = wc({"x": VarInfo(T("own (own int)"))}, LCTX_AB)
    out3 = typeck.type_instruction(prog_empty(), fn, S.Deref("y", "x"), ctx3)
    assert out3.gamma["y"].ty == T("own int")


def test_drop_of_borrow_guarded_own():
    fn = fn_stub()
    ok = wc({"x": VarInfo(T("own (immut<'a> (own int))"))})
    typeck.type_instruction(prog_empty(), fn, S.Drop("x"), ok)
    bad = wc({"x": VarInfo(T("own (own int)"))})
    with pytest.raises(TypeCheckError) as e:
        typeck.type_instruction(prog_empty(), fn, S.Drop("x"), bad)
    assert e.value.code == "DropOfBorrowGuardedOwn"
    listy = wc({"x": VarInfo(T("own (mu X. int * own X + unit)"))})
    with pytest.raises(TypeCheckError):
        typeck.type_instruction(prog_empty(), fn, S.Drop("x"), listy)


def test_copy_requires_copyable():
    fn = fn_stub()
    ctx = wc({"x": VarInfo(T("own (mut<'a> int)"))})
    with pytest.raises(TypeCheckError) as e:
        typeck.type_instruction(prog_empty(), fn, S.CopyDeref("y", "x"), ctx)
    assert e.value.code == "NotCopyable"


def test_variable_redefined():
    fn = fn_stub()
    ctx = wc({"y": VarInfo(T("own int"))})
    with pytest.raises(TypeCheckError) as e:
        typeck.type_instruction(prog_empty(), fn, S.ConstInstr("y", 1), ctx)
    assert e.value.code == "VariableRedefined"


# -- statement and program typing ---------------------------------------------


def test_return_rule_take_max():
    prog = corpus.load("inc_max")
    typing = typeck.type_program(prog)
    ctx = typing.ctx("take_max", "L4")
    assert set(ctx.gamma) == {"ma"}
    assert ctx.gamma["ma"].ty == T("mut<'a> int")
    assert ctx.lft.carrier == frozenset({"a"})


def test_return_leftovers():
    src = """
    fn f(x: own int, z: own int) -> own int {
      entry: return x;
    }
    """
    with pytest.raises(TypeCheckError) as e:
        typeck.type_program(parser.parse_program(src))
    assert e.value.code == "ReturnLeftovers"


def test_return_leftover_lifetime():
    src = """
    fn f(x: own int) -> own int {
      entry: intro 'a; goto L1;
      L1: return x;
    }
    """
    with pytest.raises(TypeCheckError) as e:
        typeck.type_program(parser.parse_program(src))
    assert e.value.code == "ReturnLeftovers"


def test_match_on_non_sum():
    src = """
    fn f(x: own int) -> own int {
      entry: match *x { inj0 *a => goto L1, inj1 *b => goto L1 };
      L1: return x;
    }
    """
    with pytest.raises(TypeCheckError) as e:
        typeck.type_program(parser.parse_program(src))
    assert e.value.code == "MatchOnNonSum"


def test_match_branch_contexts():
    prog = corpus.load("inc_max")
    typing = typeck.type_program(prog)
    l2 = typing.ctx("take_max", "L2")
    l5 = typing.ctx("take_max", "L5")
    assert l2.gamma["ou"].ty == T("own unit")
    assert l5.gamma["ou"].ty == T("own unit")
    assert "ord" not in l2.gamma


def test_whole_corpus_types(subtests=None):
    for e in corpus.CORPUS:
        typeck.type_program(corpus.load(e.name))


def test_typing_deterministic():
    prog = corpus.load("inc_some")
    a = typeck.type_program(prog)
    b = typeck.type_program(prog)
    assert set(a.contexts) == set(b.contexts)
    for key in a.contexts:
        assert a.contexts[key].same(b.contexts[key])


def test_removing_final_drop_breaks_typing():
    src = corpus.source_path("inc_max").read_text()
    broken = src.replace("L13: drop ob; goto L14;", "L13: drop ob; goto L14;").replace(
        "L12: drop oa; goto L13;", "L12: oa as own int; goto L13;"
    )
    with pytest.raises(TypeCheckError) as e:
        typeck.type_program(parser.parse_program(broken))
    assert e.value.code == "ReturnLeftovers"


def test_unknown_function_diagnostic():
    fn = fn_stub()
    prog = parser.parse_program("fn g(x: own int) -> own int { entry: return x; }")
    ctx = wc({"x": VarInfo(T("own int"))})
    with pytest.raises(S.UnknownFunction) as e:
        typeck.type_instruction(prog, fn, S.Call("y", "nope", (), ("x",)), ctx)
    assert e.value.code == "UnknownFunction"


def test_call_constraint_unsatisfied():
    src = """
    fn g<'p, 'q | 'p <= 'q>(x: mut<'p> int) -> mut<'p> int {
      entry: return x;
    }
    fn f(ox: own int) -> own unit {
      entry: intro 'a; goto L1;
      L1: intro 'b; goto L2;
      L2: let mx = mutbor 'b ox; goto L3;
      L3: let my = g<'b, 'a>(mx); goto L4;
      L4: drop my; goto L5;
      L5: now 'b; goto L6;
      L6: now 'a; goto L7;
      L7: drop ox; goto L8;
      L8: let *u = (); goto L9;
      L9: return u;
    }
    """
    with pytest.raises(TypeCheckError) as e:
        typeck.type_program(parser.parse_program(src))
    assert e.value.code == "ConstraintUnsatisfied"


def test_inconsistent_join():
    src = """
    fn f(x: own bool) -> own unit {
      entry: match *x { inj0 *a => goto L1, inj1 *b => goto L2 };
      L1: let *c = 1; goto L3;
      L2: let *c = (); goto L3;
      L3: drop c; goto L4;
      L4: drop a; goto L5;
      L5: let *u = (); goto L6;
      L6: return u;
    }
    """
    with pytest.raises(TypeCheckError) as e:
        typeck.type_program(parser.parse_program(src))
    assert e.value.code == "InconsistentJoin"


def test_instruction_determinism_on_corpus():
    # one instruction, one context: at most one successor, stable across calls
    prog = corpus.load("inc_max")
    typing = typeck.type_program(prog)
    for fname, fn in prog.functions.items():
        for label, stmt in fn.body.items():
            if isinstance(stmt, S.StmtInstr):
                a = typeck.type_instruction(prog, fn, stmt.instr, typing.ctx(fname, label))
                b = typeck.type_instruction(prog, fn, stmt.instr, typing.ctx(fname, label))
                assert a.same(b)


def _corpus_types():
    out = []
    for e in corpus.CORPUS[:6]:
        prog = corpus.load(e.name)
        typing = typeck.type_program(prog)
        for wc in typing.contexts.values():
            for vi in wc.gamma.values():
                out.append((wc.lft, vi.ty))
    return out


def test_subtype_reflexive_on_corpus_types():
    for lctx, t in _corpus_types():
        assert typeck.subtype(lctx, t, t)


def test_type_equiv_symmetric_on_corpus_types():
    pairs = _corpus_types()
    for (lctx, t), (_, u) in zip(pairs, pairs[1:]):
        if typeck.type_equiv(lctx, t, u):
            assert typeck.type_equiv(lctx, u, t)


TYPING_JSON_SHA256 = {
    "inc_max": "9a534a5c807fd0799dc6160b310171751b18d96962c2176d4e788de2806ba9ef",
    "inc_max_unsafe": "9a534a5c807fd0799dc6160b310171751b18d96962c2176d4e788de2806ba9ef",
    "just_rec": "6d249a3ab22031852893abe683128da507d641e296e688e0c36f198b58ca235a",
    "just_rec_unsafe": "6d249a3ab22031852893abe683128da507d641e296e688e0c36f198b58ca235a",
    "linger_dec": "a345d735b18aad82087d977537552441ae6265afb5822e6362b131f212752f09",
    "linger_dec_unsafe": "a345d735b18aad82087d977537552441ae6265afb5822e6362b131f212752f09",
    "inc_some": "db0045097788cc8f3e716136ecdbb53d95f4a2d6c7503cdeb0fe1bb4bd045df3",
    "inc_some_unsafe": "db0045097788cc8f3e716136ecdbb53d95f4a2d6c7503cdeb0fe1bb4bd045df3",
    "inc_some_t": "9e484e7db8618d55524fb827b826969801097f9f9ed00bf3fcdc47ab420b9105",
    "inc_some_t_unsafe": "9e484e7db8618d55524fb827b826969801097f9f9ed00bf3fcdc47ab420b9105",
    "swap_mm": "a17068ebaf1151a216e4e168b12d3b7093899a33e13d68bf8fa29e05fb4913a1",
    "dup_imm": "cb05824888f7391eb3683839426cc11f2a71036fcefc3cf993bc6db5e495f751",
    "read_thru": "b41dd71a68abcec57a4454c8847bdbec83bf4124e2569f111b115ab0d9fd7f69",
    "read_imm": "29b6c8942744f8181a17b7e57856c1e044300d91a51144accd57852356863db4",
    "pair_mut": "47eef81f2c95265bca8a088b7f584951cb3f5c39aa1f087e338bec80a3971a30",
    "build_and_sum": "11513bda2ef451e123897f884f8b4dbdc6b89e8c646091c6fb3cb14f44207528",
}


def test_typing_contexts_pinned():
    """The whole context of every label, as `--dump-contexts` prints it,
    for the corpus and the feature programs."""
    from test_features import CASES

    progs = [(e.name, corpus.load(e.name)) for e in corpus.CORPUS]
    progs += [(name, parser.parse_program(src)) for name, src, *_ in CASES]
    assert [name for name, _ in progs] == list(TYPING_JSON_SHA256)
    for name, prog in progs:
        doc = typeck.typing_json(prog, typeck.type_program(prog))
        digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
        assert digest == TYPING_JSON_SHA256[name], name


# a borrow of data living at two lifetimes, and a parameter mentioning
# two unbound ones: each message names the first lifetime in sorted order
BORROW_OF_PAIR = """
fn f(oa: own int, ob: own int) -> own int {
  entry: intro 'a; goto L1;
  L1: intro 'b; goto L2;
  L2: let ma = mutbor 'a oa; goto L3;
  L3: let mb = mutbor 'b ob; goto L4;
  L4: let *oma = ma; goto L5;
  L5: let *omb = mb; goto L6;
  L6: let *p = (*oma, *omb); goto L7;
  L7: intro 'c; goto L8;
  L8: let mp = mutbor 'c p; goto L9;
  L9: return oa;
}
"""
UNBOUND_PARAM_LIFETIMES = """
fn g<'x>(p: mut<'y> (mut<'z> int)) -> own int {
  entry: return p;
}
"""


@pytest.mark.parametrize("src, message", [
    (BORROW_OF_PAIR, "error: f:L8: [BorrowOutlivesData] 'c must end before 'a of the borrowed data"),
    (UNBOUND_PARAM_LIFETIMES,
     "error: g:entry: [UnknownLifetime] parameter 'p' mentions unbound lifetime 'y"),
], ids=["mutbor_of_pair", "entry_params"])
def test_lifetime_messages_independent_of_hash_seed(tmp_path, src, message):
    path = tmp_path / "prog.cor"
    path.write_text(src)
    for seed in HASH_SEEDS:
        proc = python_under_hash_seed(seed, "-m", "corhorn", "check", str(path))
        assert (proc.returncode, proc.stderr.strip()) == (2, message), seed


# Each failing program above, typed through type_program, with the exact
# message and location of its error; the last is raised by a rule helper
# deep inside type_instruction.
TYPE_ERROR_CASES = {
    "leftover_variable": ("""
    fn f(x: own int, z: own int) -> own int {
      entry: return x;
    }
    """, "f:entry: [ReturnLeftovers] variables still live at return: ['z']"),
    "leftover_lifetime": ("""
    fn f(x: own int) -> own int {
      entry: intro 'a; goto L1;
      L1: return x;
    }
    """, "f:L1: [ReturnLeftovers] local lifetimes still live at return: ['a']"),
    "missing_final_drop": (
        corpus.source_path("inc_max").read_text().replace(
            "L12: drop oa; goto L13;", "L12: oa as own int; goto L13;"),
        "inc_max:L14: [ReturnLeftovers] variables still live at return: ['oa']",
    ),
    "match_on_non_sum": ("""
    fn f(x: own int) -> own int {
      entry: match *x { inj0 *a => goto L1, inj1 *b => goto L1 };
      L1: return x;
    }
    """, "f:entry: [MatchOnNonSum] match needs a pointer to a sum type, got own int"),
    "destruct_non_product": ("""
    fn f(x: own int) -> own int {
      entry: let *y = copy *x; goto L1;
      L1: let (*a, *b) = *y; goto L2;
      L2: return x;
    }
    """, "f:L1: [TypeMismatch] pair destruction needs a pointer to a product, got own int"),
    "constraint_unsatisfied": ("""
    fn g<'p, 'q | 'p <= 'q>(x: mut<'p> int) -> mut<'p> int {
      entry: return x;
    }
    fn f(ox: own int) -> own unit {
      entry: intro 'a; goto L1;
      L1: intro 'b; goto L2;
      L2: let mx = mutbor 'b ox; goto L3;
      L3: let my = g<'b, 'a>(mx); goto L4;
      L4: drop my; goto L5;
      L5: now 'b; goto L6;
      L6: now 'a; goto L7;
      L7: drop ox; goto L8;
      L8: let *u = (); goto L9;
      L9: return u;
    }
    """, "f:L3: [ConstraintUnsatisfied] required 'b <= 'a does not hold here"),
    "inconsistent_join": ("""
    fn f(x: own bool) -> own unit {
      entry: match *x { inj0 *a => goto L1, inj1 *b => goto L2 };
      L1: let *c = 1; goto L3;
      L2: let *c = (); goto L3;
      L3: drop c; goto L4;
      L4: drop a; goto L5;
      L5: let *u = (); goto L6;
      L6: return u;
    }
    """, "f:L2: [InconsistentJoin] two gotos reach 'L3' with different contexts"),
    "use_of_frozen": ("""
    fn f(x: own int) -> own int {
      entry: intro 'a; goto L1;
      L1: let m = mutbor 'a x; goto L2;
      L2: drop x; goto L3;
      L3: return x;
    }
    """, "f:L2: [FrozenVariable] variable 'x' is frozen until 'a"),
    "binop_of_frozen": ("""
    fn f(x: own int) -> own int {
      entry: intro 'a; goto L1;
      L1: let m = mutbor 'a x; goto L2;
      L2: let *y = *x + *x; goto L3;
      L3: return x;
    }
    """, "f:L2: [FrozenVariable] variable 'x' is frozen until 'a"),
}


@pytest.mark.parametrize("name", list(TYPE_ERROR_CASES))
def test_type_error_messages_pinned(name):
    src, message = TYPE_ERROR_CASES[name]
    with pytest.raises(TypeCheckError) as e:
        typeck.type_program(parser.parse_program(src))
    where, _, rest = message.partition(": [")
    fn, label = where.split(":")
    code = rest.partition("]")[0]
    assert (str(e.value), e.value.code, e.value.fn, e.value.label) == (message, code, fn, label)
