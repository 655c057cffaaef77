import hashlib
import re
import stat
import textwrap

import pytest

from corhorn import corpus, logic as L, parser, smtlib, syntax as S, translate as T, values as V


@pytest.fixture(scope="module")
def inc_max_script():
    prog = corpus.load("inc_max")
    sys = T.translate_program(prog)
    sys = T.attach_goal(sys, prog, T.GoalSpec.parse("inc_max returns true"))
    return smtlib.emit_smt2(sys)


def test_emission_deterministic(inc_max_script):
    prog = corpus.load("inc_max")
    sys = T.translate_program(prog)
    sys = T.attach_goal(sys, prog, T.GoalSpec.parse("inc_max returns true"))
    assert smtlib.emit_smt2(sys) == inc_max_script


def test_mut_int_datatype(inc_max_script):
    assert "(mk_Mut_Int (cur_Mut_Int Int) (proph_Mut_Int Int))" in inc_max_script


def test_take_max_counts():
    prog = corpus.load("inc_max")
    sys = T.translate_program(prog)
    script = smtlib.emit_smt2(sys)
    decls = [l for l in script.splitlines() if l.startswith("(declare-fun take_max!")]
    heads = [c for c in sys.clauses if c.head and c.head.pred.startswith("take_max!")]
    asserts = [l for l in script.splitlines() if l.startswith("(assert")]
    assert len(decls) == 8
    assert len(heads) == 9
    assert len(asserts) == len(sys.clauses)


def test_header_and_checksat(inc_max_script):
    lines = inc_max_script.splitlines()
    assert lines[0] == "(set-logic HORN)"
    assert lines[-1] == "(check-sat)"
    assert "(assert (=> goal_violation false))" in inc_max_script


def test_recursive_sort_shared_declaration():
    prog = corpus.load("inc_some")
    sys = T.translate_program(prog)
    script = smtlib.emit_smt2(sys)
    recs = [tok for tok in script.split() if tok.startswith("(Rec")]
    # the list sort and its unfolding collapse into one recursive datatype
    assert script.count("(Rec0 0)") == 1
    assert "(Rec1 0)" not in script


def test_head_patterns_become_equations():
    prog = corpus.load("inc_max")
    sys = T.translate_program(prog)
    script = smtlib.emit_smt2(sys)
    # the drop-of-mut clause pins both components of the released reference
    assert "(= h!1 (mk_Mut_Int mb!c mb!c))" in script


def _fake_solver(tmp_path, body: str) -> str:
    path = tmp_path / "fake_solver"
    path.write_text("#!/bin/sh\n" + textwrap.dedent(body))
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


def test_run_solver_parses_sat(tmp_path):
    cmd = _fake_solver(tmp_path, "echo sat\n")
    verdict = smtlib.run_solver(smtlib.SolverConfig((cmd,), timeout=10), "(check-sat)\n")
    assert verdict.status == "sat" and verdict.holds is True


def test_run_solver_parses_unsat_with_noise(tmp_path):
    cmd = _fake_solver(tmp_path, "echo 'info: warming up'\necho unsat\n")
    verdict = smtlib.run_solver(smtlib.SolverConfig((cmd,), timeout=10), "x")
    assert verdict.status == "unsat" and verdict.holds is False


def test_run_solver_timeout(tmp_path):
    cmd = _fake_solver(tmp_path, "sleep 5\necho sat\n")
    verdict = smtlib.run_solver(smtlib.SolverConfig((cmd,), timeout=0.3), "x")
    assert verdict.status == "timeout" and verdict.holds is None


def test_run_solver_tool_error(tmp_path):
    cmd = _fake_solver(tmp_path, "echo 'parse error' >&2\nexit 3\n")
    verdict = smtlib.run_solver(smtlib.SolverConfig((cmd,), timeout=10), "x")
    assert verdict.status == "error"
    assert "parse error" in verdict.detail


def test_run_solver_missing_binary():
    verdict = smtlib.run_solver(smtlib.SolverConfig(("/nonexistent/solver",), timeout=5), "x")
    assert verdict.status == "error"


@pytest.mark.parametrize("body, ok", [
    ("echo sat\n", True),
    ("echo unsat\n", False),
    ("echo unknown\n", False),
    ("echo 'module not loaded' >&2\nexit 1\n", False),
])
def test_probe_solver_requires_sat(tmp_path, body, ok):
    cmd = _fake_solver(tmp_path, body)
    assert smtlib.probe_solver(smtlib.SolverConfig((cmd,), timeout=10)) is ok


def test_probe_solver_missing_binary():
    assert not smtlib.probe_solver(smtlib.SolverConfig(("/nonexistent/solver",), timeout=5))


@pytest.mark.parametrize("answer", ["sat", "unsat"])
def test_find_solver_probes_candidates(tmp_path, monkeypatch, answer):
    z3 = tmp_path / "z3"
    z3.write_text(f"#!/bin/sh\necho {answer}\n")
    z3.chmod(0o755)
    monkeypatch.setenv("PATH", str(tmp_path))  # no hoice, no node
    cfg = smtlib.find_solver(timeout=10)
    if answer == "sat":
        assert cfg == smtlib.SolverConfig(("z3", "fp.engine=spacer"), 10)
    else:
        assert cfg is None


def test_solver_config_validation():
    with pytest.raises(Exception):
        smtlib.SolverConfig(("z3",), timeout=0)


def test_fixture_systems_emit():
    from helpers import inc_some_system, linger_dec_system, take_max_inc_max_system

    for builder in (take_max_inc_max_system, linger_dec_system, inc_some_system):
        sys, _ = builder()
        script = smtlib.emit_smt2(sys)
        assert script.startswith("(set-logic HORN)")


# SHA-256 of emit_smt2 for each corpus program with its corpus goal.  The
# script is the contract with external solvers: any change to sort naming,
# RecN numbering or declaration order must show up here.
SCRIPT_SHA256 = {
    "inc_max": "51f79d0a59351cf42beddf5ebdf34b09fa7ba37dc8ddee02865e2d91207cf13c",
    "inc_max_unsafe": "0e780077adda43eb6746685e9f2242c12792e77291f62216a6403528332b9747",
    "just_rec": "3fb292697f3168c06213a1994662154fd5a6da76e4d961c744c128b94ae71d8a",
    "just_rec_unsafe": "4b73bdc1ee96b58eed3a171b12349e25b2d3e5ccc0ee9ee7808969bd705807a2",
    "linger_dec": "29400a8bb15b5c40bb9d9e5dcce52bfe8c55e3c31f9a5f7a6a4d90a20964b368",
    "linger_dec_unsafe": "d135dcd894a68708cf0b21e5eb588110204c10719b9e4b016ee8856f1e1804ef",
    "inc_some": "4d066940e36ac8b0904ebcc6c5062f1ea3cab0123235b548c64159c275ddc116",
    "inc_some_unsafe": "98b2cb9576ce505020e83d54066a88adb57e8070fa230116a8ae64bc00b05672",
    "inc_some_t": "2a986d5c75dcd73c80d98c93ef6e1814b354a675dc6ed89175984fd60d2a635a",
    "inc_some_t_unsafe": "90ffbc9ee8a545506618d64bacf65b67d006a19b6e8e4710134c924192441189",
}


@pytest.mark.parametrize("entry", corpus.CORPUS, ids=lambda e: e.name)
def test_corpus_script_bytes_pinned(entry):
    prog = corpus.load(entry.name)
    sys = T.attach_goal(T.translate_program(prog), prog, T.GoalSpec.parse(entry.goal))
    digest = hashlib.sha256(smtlib.emit_smt2(sys).encode()).hexdigest()
    assert digest == SCRIPT_SHA256[entry.name]


# SHA-256 of emit_smt2 for the scripts SCRIPT_SHA256 leaves out: each
# corpus program and each feature-coverage program without a goal, and
# the `equals` goals, the only path that emits `distinct` and is_true.
BARE_SCRIPT_SHA256 = {
    "inc_max": "eafdcf7df045b3c7c3e948b52a3bb7d1984f10baf62cfe6e74ba84cd34b460b7",
    "inc_max_unsafe": "9f8ac12293188d6d5bbc033ff1eb13c2b4f58927ad8918fbf8c74e7761516cc2",
    "just_rec": "47b94427fd6cd39a2534fe43b345a81bd200704ced73fecc0eb55ba63cb35f1d",
    "just_rec_unsafe": "50e9b9f4739fef10f5b2c0f9c7342c85611e568a38442209602371392b5bfbd9",
    "linger_dec": "54aa466aabebfa00167ae1caabf511fffb24cf6c217d6d64fb9d6603ce34a61e",
    "linger_dec_unsafe": "8af2a766b4813bd8363555eaac6523c2336b2f7b6dbe87d35af6ab9ee1a68a63",
    "inc_some": "8ba121f1e5278c07926dbd11dd26793871a20a7e235940e16f0000a79b581fbd",
    "inc_some_unsafe": "f73684fe68202f671a0737f0d6fb057d27648762916f775a62eace8b98618a83",
    "inc_some_t": "b73de3b3acf236a60cf8c6d41d4751ad689bf216adb5d3b0b5dee5a6a92e6732",
    "inc_some_t_unsafe": "44442e6bd4cc7ac98a4a30455745d4fbee271e6f660ec2f885790f8d8011a9db",
    "swap_mm": "b3e6769cc6de56b35b200eedf69ac10444e373dc37daa8c9b04578600c537b9b",
    "dup_imm": "bf5f2f6525102003fa4ab053b8d871a8e74ed8df6b36ca77979705e348b4be3a",
    "read_thru": "1dc75a6a9e7e5c6599e5372294da23e0cca7e0860cd75a4d20003e71f023bd84",
    "read_imm": "27de3f29dd78eb7f7f3e010350d822df9d1ba72dfd7ffcc201f56d2f4fade998",
    "pair_mut": "1d3e554e327d63b1079e4e32ff96ae9da53567014a4b59e92d5d7da97f7978e3",
    "build_and_sum": "dfbcdbca9f05888537c1d3521e35f7c50f795e335fd6a789ed92f9fc51d76973",
    "read_thru equals box(3)": "df9763d545faf92d8ca6a2095b5a762b9be7e590fff873ae73a39bb469af6784",
    "build_and_sum equals box(3)": "9e72171a9b3b1cfcc207670ff756cb4c3be8b0210722904876ea303c3623b3d9",
}


def _bare_programs():
    from test_features import CASES

    progs = {e.name: corpus.load(e.name) for e in corpus.CORPUS}
    progs.update((name, parser.parse_program(src)) for name, src, *_ in CASES)
    return progs


def test_bare_and_equals_script_bytes_pinned():
    digests = {}
    for name, prog in _bare_programs().items():
        sys = T.translate_program(prog)
        digests[name] = hashlib.sha256(smtlib.emit_smt2(sys).encode()).hexdigest()
        if name in ("read_thru", "build_and_sum"):
            goal = f"{name} equals box(3)"
            script = smtlib.emit_smt2(T.attach_goal(sys, prog, T.GoalSpec.parse(goal)))
            assert "distinct" in script and "is_true" in script
            digests[goal] = hashlib.sha256(script.encode()).hexdigest()
    assert digests == BARE_SCRIPT_SHA256


def test_ill_sorted_head_pattern_is_an_emit_error():
    # p takes an int; a box in its head has no SMT sort at that position
    sys = L.CHCSystem([L.Clause((), L.Atom("p", (V.Box(3),)), ())], {"p": (L.INT_S,)})
    with pytest.raises(smtlib.EmitError):
        smtlib.emit_smt2(sys)


def test_ill_sorted_int_literal_in_head_is_an_emit_error():
    # p takes a box of int; a bare int in its head is not of that sort
    box_int = L.BoxS(L.INT_S)
    sys = L.CHCSystem([L.Clause((), L.Atom("p", (3,)), ())], {"p": (box_int,)})
    with pytest.raises(smtlib.EmitError, match="3 at sort"):
        smtlib.emit_smt2(sys)


def test_ill_sorted_variable_in_body_is_an_emit_error():
    # q takes a box of int; x is bound as an int
    box_int = L.BoxS(L.INT_S)
    sys = L.CHCSystem([L.Clause((("x", L.INT_S),), None, (L.Atom("q", (V.Var("x"),)),))],
                      {"q": (box_int,)})
    with pytest.raises(smtlib.EmitError, match="x at sort"):
        smtlib.emit_smt2(sys)


# SMT-LIB 2.6: a numeral is 0 or a digit run without a leading zero; a
# simple symbol is a non-empty run of ASCII letters, digits and
# ~!@$%^&*_-+=<>.?/ that does not start with a digit.
_NUMERAL = re.compile(r"(0|[1-9][0-9]*)\Z")
_SIMPLE_SYMBOL = re.compile(r"[A-Za-z~!@$%^&*_\-+=<>.?/][A-Za-z0-9~!@$%^&*_\-+=<>.?/]*\Z")


def _pinned_scripts():
    """Every script SCRIPT_SHA256 and BARE_SCRIPT_SHA256 pin, by key."""
    for entry in corpus.CORPUS:
        prog = corpus.load(entry.name)
        goal = T.GoalSpec.parse(entry.goal)
        yield entry.name, smtlib.emit_smt2(T.attach_goal(T.translate_program(prog), prog, goal))
    for name, prog in _bare_programs().items():
        sys = T.translate_program(prog)
        yield f"{name} bare", smtlib.emit_smt2(sys)
        if name in ("read_thru", "build_and_sum"):
            goal = T.GoalSpec.parse(f"{name} equals box(3)")
            yield f"{name} equals", smtlib.emit_smt2(T.attach_goal(sys, prog, goal))


def test_pinned_scripts_use_numerals_and_simple_symbols_only():
    for name, script in _pinned_scripts():
        for tok in re.findall(r"[^\s()]+", script):
            assert _NUMERAL.match(tok) or _SIMPLE_SYMBOL.match(tok), (name, tok)


def _datatype_symbols(script: str) -> set[str]:
    """The constructors and selectors of the script's declare-datatypes."""
    toks = re.findall(r"\(|\)|[^\s()]+", script)
    out: set[str] = set()
    if "declare-datatypes" not in toks:
        return out
    i, depth = toks.index("declare-datatypes") + 1, 1
    while depth:
        # at depth 4 a list opens a constructor, at depth 5 a selector
        if toks[i] == "(":
            depth += 1
            if depth in (4, 5) and toks[i + 1] != "(":
                out.add(toks[i + 1])
        elif toks[i] == ")":
            depth -= 1
        i += 1
    return out


def test_declared_datatype_symbols_are_not_identifiers():
    names = {sym for _, ctors in smtlib._DATATYPES.values()
             for ctor, selectors in ctors.items() for sym in (ctor, *(sel for sel, _ in selectors))}
    declared = set().union(*(_datatype_symbols(script) for _, script in _pinned_scripts()))
    assert {x.split("_")[0] for x in declared} == names
    for sym in declared:
        assert S.SMT_DATATYPE_SYMBOL_RE.match(sym), sym
    # every constructor and selector on every datatype prefix, and on a RecN name
    for sym in names:
        for prefix, _ in [*smtlib._DATATYPES.values(), ("Rec0", None)]:
            with pytest.raises(S.InvalidName):
                S.check_ident(f"{sym}_{prefix}")
    # names of no declared symbol's shape stay identifiers (Int is no datatype)
    assert [S.check_ident(w) for w in ("mk", "mk_box", "Box_Int", "cur_Int")] == \
        ["mk", "mk_box", "Box_Int", "cur_Int"]
