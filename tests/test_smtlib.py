import hashlib
import stat
import textwrap

import pytest

from corhorn import corpus, smtlib, translate as T


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
