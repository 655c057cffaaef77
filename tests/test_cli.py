import hashlib
import json
import shlex
import stat
import sys

import pytest

from corhorn import cli, corpus, parser, syntax as S, values as V
from helpers import drop_swap_exchange, stuck_at_swap


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


INC_MAX = str(corpus.source_path("inc_max"))


def test_check_ok(capsys):
    code, out, _ = run_cli(capsys, "check", INC_MAX)
    assert code == 0
    assert "2 functions" in out


def test_check_resolves_corpus_paths(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # no local corpus/ directory here
    code, out, _ = run_cli(capsys, "check", "corpus/inc_max.cor")
    assert code == 0


def test_check_dump_contexts(capsys):
    code, out, _ = run_cli(capsys, "check", INC_MAX, "--dump-contexts")
    assert code == 0
    blob = json.loads(out[: out.rindex("}") + 1])
    entry = blob["take_max"]["entry"]
    assert entry["vars"]["ma"] == {"activeness": "active", "type": "mut<'a> int"}
    l3 = blob["inc_max"]["L3"]
    assert l3["vars"]["oa"]["activeness"] == "frozen 'a"


def test_check_type_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cor"
    bad.write_text("fn f(x: own int, y: own int) -> own int { entry: return x; }")
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == 2
    assert "ReturnLeftovers" in err


def test_check_non_ascii_variable_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cor"
    bad.write_text("fn f() -> own int { entry: let *é = 5; goto L1; L1: return é; }")
    code, out, err = run_cli(capsys, "check", str(bad))
    assert (code, out, err) == (2, "", "error: bad variable: 'é'\n")


# The identifier-shaped words SMT-LIB 2.6 reserves, and the core symbols
# the SMT-LIB emitter applies by name.
SMT_RESERVED = ["_", "exists", "forall", "par", "BINARY", "DECIMAL", "HEXADECIMAL", "NUMERAL",
                "STRING", "assert", "echo", "exit", "pop", "push", "reset", "and", "ite", "distinct"]


@pytest.mark.parametrize("word", SMT_RESERVED)
def test_check_smt_reserved_variable_exit_2(tmp_path, capsys, word):
    src = f"fn f() -> own int {{ entry: let *{word} = 5; goto L1; L1: return {word}; }}"
    with pytest.raises(S.InvalidName):
        parser.parse_program(src)
    bad = tmp_path / "bad.cor"
    bad.write_text(src)
    code, out, err = run_cli(capsys, "check", str(bad))
    assert (code, out, err) == (2, "", f"error: bad variable: {word!r}\n")


@pytest.mark.parametrize("word", ["mk_Box_Int", "cur_Mut_Int", "proph_Mut_Box_Int", "mk_Unit",
                                  "inj1_Sum_Unit_Unit", "pay0_Sum_Int_Int", "snd_Prod_Int_Rec0",
                                  "fst_Rec1"])
def test_check_smt_datatype_symbol_variable_exit_2(tmp_path, capsys, word):
    # named like a constructor or selector of the script, the binder would hide it
    src = f"fn f() -> own int {{ entry: let *{word} = 5; goto L1; L1: return {word}; }}"
    bad = tmp_path / "bad.cor"
    bad.write_text(src)
    code, out, err = run_cli(capsys, "check", str(bad))
    assert (code, out, err) == (2, "", f"error: bad variable: {word!r}\n")


def test_smt_core_symbols_the_emitter_never_applies_stay_identifiers():
    # the corpus binds `or` (inc_max, just_rec, linger_dec)
    assert [S.check_ident(w) for w in ("or", "not")] == ["or", "not"]


def test_run_command(capsys):
    code, out, _ = run_cli(
        capsys, "run", INC_MAX, "--fn", "inc_max", "--args", "box(4), box(3)", "--json"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["status"] == "returned"
    assert blob["value"] == {"box": {"inj": [1, "unit"]}}


def test_run_trace_output(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    code, _, _ = run_cli(
        capsys, "run", INC_MAX, "--fn", "inc_max", "--args", "box(4),box(3)",
        "--trace", str(trace),
    )
    assert code == 0
    lines = [json.loads(l) for l in trace.read_text().splitlines()]
    assert len(lines) == 20
    assert lines[0]["stack"][0]["label"] == "entry"
    assert all(isinstance(a, int) and isinstance(v, int) for a, v in lines[0]["heap"])


def test_run_abstract_with_safety(capsys):
    code, out, _ = run_cli(
        capsys, "run-abstract", INC_MAX, "--fn", "inc_max",
        "--args", "box(4),box(3)", "--check-safety", "--json",
    )
    assert code == 0
    assert json.loads(out)["value"] == {"box": {"inj": [1, "unit"]}}


def test_run_abstract_returns_on_a_long_list(capsys):
    # 85 cells, each three term levels deep: resolving a prophecy walks
    # 255 levels of the list, which once overflowed the Python stack
    xs = "box(inj1 ())"
    for i in reversed(range(85)):
        xs = f"box(inj0 ({i}, {xs}))"
    argv = (str(corpus.source_path("inc_some")), "--fn", "inc_some", "--args", xs)
    want = (0, "returned box(inj1 ()) after 2179 steps\n", "")
    assert run_cli(capsys, "run", *argv) == want
    assert run_cli(capsys, "run-abstract", *argv) == want
    assert run_cli(capsys, "run-abstract", *argv, "--check-safety") == want


def test_run_fuel_exhaustion_exit(capsys):
    code, out, _ = run_cli(
        capsys, "run", INC_MAX, "--fn", "inc_max", "--args", "box(4),box(3)",
        "--fuel", "2",
    )
    assert code == 2
    assert "out_of_fuel" in out


def test_translate_internal_golden(capsys):
    code, out, _ = run_cli(capsys, "translate", INC_MAX)
    assert code == 0
    lines = out.splitlines()
    take_max = [l for l in lines if l.startswith("take_max!")]
    assert len(take_max) == 9
    assert "take_max!L4(ma, ma) <= true" in take_max
    assert "take_max!L3(ma, mut(mb!c, mb!c), res) <= take_max!L4(ma, res)" in take_max


def test_translate_smt2_with_goal(tmp_path, capsys):
    out_file = tmp_path / "x.smt2"
    code, _, _ = run_cli(
        capsys, "translate", INC_MAX, "--format", "smt2",
        "--goal", "inc_max returns true", "-o", str(out_file),
    )
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("(set-logic HORN)")
    assert "goal_violation" in text


def test_solve_missing_file(capsys):
    code, _, err = run_cli(capsys, "solve", "missing.cor", "--goal", "f returns true")
    assert code == 2


@pytest.mark.parametrize("via", ["flag", "env"])
def test_solve_blank_solver_command_exit_2(capsys, monkeypatch, via):
    monkeypatch.setenv("CORHORN_SOLVER", " ")
    flags = ["--solver-cmd", " "] if via == "flag" else []
    code, out, err = run_cli(capsys, "solve", INC_MAX, "--goal", "inc_max returns true", *flags)
    assert (code, out, err) == (2, "", "error: solver command is empty\n")


def test_solve_without_solver(capsys, monkeypatch):
    monkeypatch.delenv("CORHORN_SOLVER", raising=False)
    monkeypatch.setenv("PATH", "")  # nothing for the solver search to find
    code, _, err = run_cli(capsys, "solve", INC_MAX, "--goal", "inc_max returns true")
    assert code == 2
    assert "no solver" in err


def _fake_solver(tmp_path, answer):
    path = tmp_path / "solver"
    path.write_text(f"#!/bin/sh\necho {answer}\n")
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


def test_solve_with_fake_solver(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CORHORN_SOLVER", _fake_solver(tmp_path, "sat"))
    code, out, _ = run_cli(capsys, "solve", INC_MAX, "--goal", "inc_max returns true")
    assert code == 0
    assert "verified" in out


def test_solve_finds_probed_solver(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CORHORN_SOLVER", raising=False)
    (tmp_path / "z3").write_text("#!/bin/sh\necho sat\n")
    (tmp_path / "z3").chmod(0o755)
    monkeypatch.setenv("PATH", str(tmp_path))
    code, out, _ = run_cli(capsys, "solve", INC_MAX, "--goal", "inc_max returns true", "--json")
    assert code == 0
    assert json.loads(out)["solver"] == ["z3", "fp.engine=spacer"]


def test_solve_refuted_exit_code(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "solve", INC_MAX, "--goal", "inc_max returns true",
        "--solver-cmd", _fake_solver(tmp_path, "unsat"),
    )
    assert code == 1
    assert "refuted" in out


def test_bisim_command(capsys):
    code, out, _ = run_cli(
        capsys, "bisim", INC_MAX, "--fn", "inc_max", "--runs", "3", "--json"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["runs"] == 6 and blob["failures"] == []


def test_bisim_failure_repro_reruns_the_failing_draw(capsys, monkeypatch):
    # each failure's repro line reruns its draw as the last run, and that
    # run's last failure is the original one; only non-default flags show
    from corhorn import aos

    stuck_at_swap(aos, monkeypatch)
    argv = ["bisim", INC_MAX, "--fn", "inc_max", "--seed", "5", "--runs", "3",
            "--fuel", "300", "--rand-lo", "-3"]
    code, out, _ = run_cli(capsys, *argv, "--json")
    failures = json.loads(out)["failures"]
    assert code == 1 and len(failures) == 6
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out.splitlines()[-1]) == (1, f"first divergence reruns with: {failures[0]['repro']}")
    for draw in (1, 2, 3):
        repro = (f"corhorn bisim {shlex.quote(INC_MAX)} --fn inc_max --seed 5 --runs {draw} "
                 "--fuel 300 --rand-lo -3")
        original = [f for f in failures if f["repro"] == repro]
        assert [f["kind"] for f in original] == ["cos-aos", "aos-sldc"]
        code, out, _ = run_cli(capsys, *shlex.split(repro)[1:], "--json")
        assert code == 1 and json.loads(out)["failures"][-1] == original[-1]


def test_oracle_command(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", INC_MAX, "--fn", "inc_max", "--range", "2",
        "--depth", "40", "--run-seeds", "1", "--json",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["ok"] and blob["checked"] == 25


@pytest.mark.parametrize(
    "flags, stdout_sha256, inputs_sha256",
    [
        (["--range", "2"],
         "9f3407a4d2b0320c4c1f5f5202a3e11d18f1602b20de7bd4041972437c8b3a7a",
         "1b909af21eb89d9e04d579f22a50a31aec27b55c5e1303bf3340346569a8c6fa"),
        (["--range", "8", "--max-exhaustive", "10", "--samples", "20", "--seed", "3"],
         "c148f9816c264fa22f5f0dcfd989a5b811273a94c83ea7964b670808733f720d",
         "e0622dfae6c8ef48cf1ee5fd3dd193bc9b8b940764f51af23aaf82419bccf996"),
    ],
    ids=["exhaustive", "sampled"],
)
def test_oracle_inputs_and_report_pinned(capsys, monkeypatch, flags, stdout_sha256, inputs_sha256):
    # the input tuples the command checks, in order, and its report
    from corhorn import harness

    inputs = []
    real = harness.oracle_diff

    def recorded(prog, fn, tuples, **kwargs):
        inputs.extend([V.show(v) for v in t] for t in tuples)
        return real(prog, fn, tuples, **kwargs)

    monkeypatch.setattr(harness, "oracle_diff", recorded)
    code, out, _ = run_cli(capsys, "oracle", INC_MAX, "--fn", "inc_max", *flags, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha256
    assert hashlib.sha256(json.dumps(inputs).encode()).hexdigest() == inputs_sha256


def test_oracle_samples_0_is_fine_on_an_exhaustive_domain(capsys):
    # --samples is only read when the inputs are drawn: at --range 1 the
    # 9 input pairs are all checked, and the report is the same
    code, out, err = run_cli(capsys, "oracle", INC_MAX, "--fn", "inc_max", "--range", "1", "--json")
    assert (code, json.loads(out)["checked"]) == (0, 9)
    assert run_cli(capsys, "oracle", INC_MAX, "--fn", "inc_max", "--range", "1", "--samples", "0",
                   "--json") == (code, out, err)


def test_oracle_draws_a_domain_empty_within_its_depth(capsys, tmp_path):
    # each value of T needs 4 sums, past the oracle's depth of 3: with no
    # input to enumerate the inputs are drawn, so --samples is read
    t = "unit + unit"
    for _ in range(3):
        t = f"({t}) + ({t})"
    src = tmp_path / "e.cor"
    src.write_text(f"fn e(x: own ({t})) -> own ({t}) {{ entry: return x; }}")
    code, out, _ = run_cli(capsys, "oracle", str(src), "--fn", "e", "--samples", "5", "--json")
    assert (code, json.loads(out)["checked"]) == (0, 5)
    code, out, err = run_cli(capsys, "oracle", str(src), "--fn", "e", "--samples", "0")
    assert (code, out, err) == (2, "", "error: --samples: 0 is below 1, nothing would be checked\n")


@pytest.mark.parametrize("command", [["oracle"], ["bisim", "--runs", "1"]], ids=["oracle", "bisim"])
@pytest.mark.parametrize(
    "param, part",
    [
        # recursion through a box alone: every value would be infinite
        ("mu X. own X", "box (mu X. box X)"),
        # both summands recur: the sum guards it, yet no value ends
        ("mu X. own X + own X", "box (mu X. box X + box X)"),
        # an int makes the sum finite, but its other side still has no value
        ("int + (mu X. own X)", "box (mu X. box X)"),
    ],
    ids=["unguarded", "both-summands", "one-summand"],
)
def test_sort_with_no_finite_value_exit_2(capsys, tmp_path, command, param, part):
    # the type checks, but the input walks would recurse without end
    src = tmp_path / "f.cor"
    src.write_text(f"fn f(x: own ({param})) -> own ({param}) {{ entry: return x; }}")
    assert run_cli(capsys, "check", str(src))[0] == 0
    code, out, err = run_cli(capsys, command[0], str(src), "--fn", "f", *command[1:])
    assert (code, out, err) == (2, "", f"error: sort {part} has no finite value\n")


def test_oracle_budget_cut_misses_are_no_verdict(capsys):
    # at depth 1 no enumeration reaches a result: 9 misses, all flagged
    code, out, err = run_cli(
        capsys, "oracle", INC_MAX, "--fn", "inc_max", "--range", "1",
        "--depth", "1", "--run-seeds", "1",
    )
    assert code == 2
    assert out == "9 inputs checked, 9 returned, 9 misses, 9 budget flags\n"
    assert err.startswith("no verdict: ")


def test_oracle_json_reports_resolution_work(capsys, monkeypatch):
    # "sldc" sums what each enumeration did; the report's own keys stay
    from corhorn import sldc

    outcomes = []
    real = sldc.enumerate_results

    def recorded(*args, **kwargs):
        outcomes.append(real(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(sldc, "enumerate_results", recorded)
    argv = ["oracle", str(corpus.source_path("linger_dec")), "--fn", "linger_dec_main", "--range", "1",
            "--depth", "40", "--run-seeds", "1"]
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0 and len(outcomes) == 3
    blob = json.loads(out)
    assert list(blob) == ["schema", "checked", "returned", "misses", "budget_flags", "ok", "sldc"]
    assert blob["sldc"] == {"steps": sum(o.steps for o in outcomes),
                            "dedup_hits": sum(o.dedup_hits for o in outcomes),
                            "merged": sum(o.merged for o in outcomes)}
    assert blob["sldc"]["merged"] > 0
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == (0, "3 inputs checked, 3 returned, 0 misses, 3 budget flags\n")


def test_oracle_refutes_broken_translation(capsys, monkeypatch):
    drop_swap_exchange(monkeypatch)
    code, out, err = run_cli(
        capsys, "oracle", INC_MAX, "--fn", "inc_max", "--range", "1",
        "--run-seeds", "1", "--json",
    )
    assert code == 1 and err == ""
    blob = json.loads(out)
    assert blob["misses"] and not blob["ok"]


def test_oracle_notes_stuck_heap_runs(capsys, monkeypatch):
    # stdout and the exit code stay as they were; the note goes to stderr
    from corhorn import cos

    stuck_at_swap(cos, monkeypatch)
    code, out, err = run_cli(capsys, "oracle", INC_MAX, "--fn", "inc_max", "--range", "1",
                             "--run-seeds", "2")
    assert (code, out, err) == (
        0, "9 inputs checked, 0 returned, 0 misses, 0 budget flags\n",
        "note: 18 heap runs got stuck, a fault of the heap semantics\n")


def test_corpus_list(capsys):
    code, out, _ = run_cli(capsys, "corpus-list")
    assert code == 0
    assert "inc_max" in out and "unsafe" in out


def test_usage_error(capsys):
    assert cli.main(["run"]) == 2  # missing required arguments


def test_dump_contexts_to_file(tmp_path, capsys):
    out_file = tmp_path / "ctx.json"
    code, _, _ = run_cli(capsys, "check", INC_MAX, "--dump-contexts", str(out_file))
    assert code == 0
    blob = json.loads(out_file.read_text())
    assert "take_max" in blob


_RETURNED_JSON = """{
  "schema": 1,
  "status": "returned",
  "value": {
    "box": {
      "inj": [
        1,
        "unit"
      ]
    }
  },
  "steps": 19%s
}
"""
_OUT_OF_FUEL_JSON = """{
  "schema": 1,
  "status": "out_of_fuel",
  "reason": "",
  "steps": 3
}
"""


@pytest.mark.parametrize(
    "command, fuel, flags, code, stdout",
    [
        ("run", "100000", ["--json"], 0, _RETURNED_JSON % ',\n  "leaked_cells": []'),
        ("run-abstract", "100000", ["--json"], 0, _RETURNED_JSON % ""),
        ("run", "3", ["--json"], 2, _OUT_OF_FUEL_JSON),
        ("run-abstract", "3", ["--json"], 2, _OUT_OF_FUEL_JSON),
        ("run", "100000", [], 0, "returned box(inj1 ()) after 19 steps\n"),
        ("run-abstract", "100000", [], 0, "returned box(inj1 ()) after 19 steps\n"),
        ("run", "3", [], 2, "out_of_fuel after 3 steps \n"),
        ("run-abstract", "3", [], 2, "out_of_fuel after 3 steps \n"),
    ],
)
def test_run_output_pinned(capsys, command, fuel, flags, code, stdout):
    got = run_cli(capsys, command, INC_MAX, "--fn", "inc_max", "--args", "box(4), box(3)",
                  "--fuel", fuel, *flags)
    assert got == (code, stdout, "")


def test_non_decimal_digit_argument_exit_2(capsys):
    code, out, err = run_cli(capsys, "run", INC_MAX, "--fn", "inc_max", "--args", "3²")
    assert (code, out, err) == (2, "", "error: 1:1: bad integer literal (got '3²')\n")


DEEP = "box(" * 1200 + "1" + ")" * 1200


@pytest.mark.parametrize(
    "argv",
    [
        ["run", INC_MAX, "--fn", "inc_max", "--args", DEEP],
        ["translate", INC_MAX, "--goal", f"inc_max equals {DEEP}"],
    ],
    ids=["args", "goal"],
)
def test_deeply_nested_argument_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: input nested too deeply\n")


def _tall_program(tmp_path, chain, height):
    """A program whose parameter and result type is `height` nodes tall,
    as a chain of owns or as summands under one own, or holds a chain of
    owns in a mu-type whose unfolding is `height` nodes tall (`height`
    + 1 when `height` is odd); and an argument."""
    if chain == "own":
        ty, arg = "own " * (height - 1) + "int", "box(" * (height - 1) + "1" + ")" * (height - 1)
    elif chain == "sum":
        ty, arg = "own (" + " + ".join(["int"] * (height - 1)) + ")", "box(inj1 5)"
    else:
        # mu X. own^k (X + unit) is k + 3 nodes tall and unfolds to 2k + 4
        k = (height - 3) // 2
        ty = f"own (mu X. {'own ' * k}(X + unit))"
        arg = "box(" * (k + 1) + "inj1 ()" + ")" * (k + 1)
    path = tmp_path / f"tall{height}.cor"
    path.write_text(f"fn f(x: {ty}) -> {ty} {{ entry: return x; }}")
    return str(path), arg


TALL_COMMANDS = [["check"], ["translate"], ["translate", "--format", "smt2"],
                 ["run", "--fn", "f"], ["run-abstract", "--fn", "f", "--check-safety"],
                 ["oracle", "--fn", "f"], ["bisim", "--fn", "f", "--runs", "3"]]


@pytest.mark.parametrize("chain", ["own", "sum", "mu"])
def test_type_height_bound(capsys, tmp_path, chain):
    # every command handles the tallest type the parser takes, and the
    # mu-type with the tallest unfolding; one node more (one own more in
    # the mu-type) is a parse error at the type, not a RecursionError
    # past parsing
    taller = f"type taller than {parser.MAX_TYPE_HEIGHT} nodes"
    where = f"1:14: {taller} once unfolded (got 'mu')" if chain == "mu" else f"1:9: {taller} (got 'own')"
    for height, want in ((parser.MAX_TYPE_HEIGHT, 0), (parser.MAX_TYPE_HEIGHT + 1, 2)):
        path, arg = _tall_program(tmp_path, chain, height)
        for command, *flags in TALL_COMMANDS:
            args = ["--args", arg] if command.startswith("run") else []
            code, out, err = run_cli(capsys, command, path, *flags, *args)
            assert code == want, (height, command)
            if want:
                assert (out, err) == ("", f"error: {where}\n")


def test_recursion_error_past_parsing_propagates(monkeypatch):
    # Only parsing the command line's input blames the input; a
    # RecursionError anywhere else is a fault and keeps its traceback.
    def deep(*args, **kwargs):
        raise RecursionError

    monkeypatch.setattr(cli.cos, "run", deep)
    with pytest.raises(RecursionError):
        cli.main(["run", INC_MAX, "--fn", "inc_max", "--args", "box(4), box(3)"])


@pytest.mark.parametrize("timeout", ["nan", "inf"])
def test_solve_non_finite_timeout_exit_2(capsys, timeout):
    code, out, err = run_cli(capsys, "solve", INC_MAX, "--goal", "inc_max returns true",
                             "--solver-cmd", "cat", "--timeout", timeout)
    assert (code, out, err) == (2, "", "error: solver timeout must be finite\n")


SQUARE_4 = """
fn sq4(o0: own int) -> own int {
  entry: let *o1 = *o0 * *o0; goto L1;
  L1: drop o0; goto L2;
  L2: let *o2 = *o1 * *o1; goto L3;
  L3: drop o1; goto L4;
  L4: let *o3 = *o2 * *o2; goto L5;
  L5: drop o2; goto L6;
  L6: let *o4 = *o3 * *o3; goto L7;
  L7: drop o3; goto L8;
  L8: return o4;
}
"""


@pytest.mark.parametrize(
    "command, flags",
    [("run", []), ("run", ["--json"]), ("run", ["--trace", "t.jsonl"]), ("run-abstract", [])],
    ids=["run", "run-json", "run-trace", "run-abstract"],
)
def test_result_too_large_to_print_exit_2(capsys, tmp_path, monkeypatch, command, flags):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter prints ints of any length")
    (tmp_path / "sq4.cor").write_text(SQUARE_4)
    monkeypatch.chdir(tmp_path)
    # squaring a run of d nines gives 2d digits, so sq4 returns 16d > limit
    nines = "9" * (limit // 16 + 1)
    got = run_cli(capsys, command, "sq4.cor", "--fn", "sq4", "--args", f"box({nines})", *flags)
    assert got == (2, "", "error: a result value is too large to print\n")
    assert not (tmp_path / "t.jsonl").exists()


def test_other_value_error_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("not about printing")

    monkeypatch.setattr(cli.cos, "run", broken)
    with pytest.raises(ValueError, match="not about printing"):
        cli.main(["run", INC_MAX, "--fn", "inc_max", "--args", "box(4), box(3)"])


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--args", "box(1)"],
        ["run-abstract", "--args", "box(1)"],
        ["bisim", "--runs", "1"],
        ["oracle"],
    ],
    ids=lambda argv: argv[0],
)
def test_unknown_function_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, argv[0], INC_MAX, "--fn", "nope", *argv[1:])
    assert (code, out, err) == (2, "", "error: [UnknownFunction] no function named 'nope'\n")


JUST_REC = str(corpus.source_path("just_rec"))


@pytest.mark.parametrize(
    "argv, flags, lo, hi",
    [
        (["run", JUST_REC, "--fn", "just_rec_main", "--args", "box(3)", "--rand-lo", "5",
          "--rand-hi", "1"], "--rand-lo/--rand-hi", 5, 1),
        (["run-abstract", JUST_REC, "--fn", "just_rec_main", "--args", "box(3)", "--rand-lo", "5",
          "--rand-hi", "1"], "--rand-lo/--rand-hi", 5, 1),
        (["bisim", JUST_REC, "--fn", "just_rec_main", "--runs", "1", "--rand-lo", "5",
          "--rand-hi", "1"], "--rand-lo/--rand-hi", 5, 1),
        (["oracle", INC_MAX, "--fn", "inc_max", "--range", "-1"], "--range", 1, -1),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_empty_integer_range_exit_2(capsys, argv, flags, lo, hi):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {flags}: empty integer range {lo}..{hi}\n")


def test_bisim_passes_rand_range_to_both_lockstep_checks(capsys, monkeypatch):
    from corhorn import harness

    seen = []
    for name in ("lockstep_cos_aos", "lockstep_aos_sldc"):
        real = getattr(harness, name)

        def wrapped(*args, _name=name, _real=real, **kwargs):
            seen.append((_name, kwargs.get("rand_range")))
            return _real(*args, **kwargs)

        monkeypatch.setattr(harness, name, wrapped)
    code, out, _ = run_cli(capsys, "bisim", JUST_REC, "--fn", "just_rec_main", "--runs", "1",
                           "--rand-lo", "0", "--rand-hi", "0")
    assert (code, out) == (0, "2 lockstep runs, 0 divergences\n")
    assert seen == [("lockstep_cos_aos", (0, 0)), ("lockstep_aos_sldc", (0, 0))]


def test_bisim_reports_runs_that_end_at_fuel(capsys):
    code, out, _ = run_cli(capsys, "bisim", JUST_REC, "--fn", "just_rec_main", "--runs", "3",
                           "--fuel", "5", "--json")
    blob = json.loads(out)
    assert (code, blob["runs"], blob["failures"], blob["out_of_fuel"]) == (0, 6, [], 6)
    code, out, _ = run_cli(capsys, "bisim", JUST_REC, "--fn", "just_rec_main", "--runs", "3",
                           "--fuel", "5")
    assert (code, out) == (0, "6 lockstep runs, 0 divergences, 6 ended at fuel\n")


def test_bisim_translates_no_program(capsys, monkeypatch):
    from corhorn import translate

    real = translate.translate_program
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(translate, "translate_program", counted)
    code, out, _ = run_cli(capsys, "bisim", INC_MAX, "--fn", "inc_max", "--runs", "3")
    assert (code, out) == (0, "6 lockstep runs, 0 divergences\n")
    assert calls == []


@pytest.mark.parametrize(
    "argv, flag, n, least",
    [
        (["bisim", INC_MAX, "--fn", "inc_max", "--runs", "0"], "--runs", 0, 1),
        (["bisim", INC_MAX, "--fn", "inc_max", "--runs", "-3"], "--runs", -3, 1),
        (["bisim", INC_MAX, "--fn", "inc_max", "--fuel", "-1"], "--fuel", -1, 0),
        (["oracle", INC_MAX, "--fn", "inc_max", "--run-seeds", "0"], "--run-seeds", 0, 1),
        (["oracle", INC_MAX, "--fn", "inc_max", "--samples", "0", "--max-exhaustive", "0"],
         "--samples", 0, 1),
        (["oracle", INC_MAX, "--fn", "inc_max", "--depth", "0"], "--depth", 0, 1),
        (["run", INC_MAX, "--fn", "inc_max", "--args", "box(4), box(3)", "--fuel", "-3"],
         "--fuel", -3, 0),
        (["run-abstract", INC_MAX, "--fn", "inc_max", "--args", "box(4), box(3)", "--fuel", "-1"],
         "--fuel", -1, 0),
    ],
    ids=["bisim-runs-0", "bisim-runs-neg", "bisim-fuel-neg", "oracle-run-seeds-0", "oracle-samples-0",
         "oracle-depth-0", "run-fuel-neg", "run-abstract-fuel-neg"],
)
def test_vacuous_count_exit_2(capsys, argv, flag, n, least):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {flag}: {n} is below {least}, nothing would be checked\n")


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["check", "{dir}"], "cannot read {dir}: Is a directory"),
        (["check", "{latin1}"], "cannot read {latin1}: not UTF-8 (invalid continuation byte at byte 6)"),
        (["check", INC_MAX, "--dump-contexts", "{dir}"], "cannot write {dir}: Is a directory"),
        (["translate", INC_MAX, "-o", "{dir}"], "cannot write {dir}: Is a directory"),
        (["run", INC_MAX, "--fn", "inc_max", "--args", "box(4), box(3)", "--trace", "{dir}"],
         "cannot write {dir}: Is a directory"),
    ],
    ids=["check-dir", "check-latin1", "dump-contexts-dir", "translate-o-dir", "run-trace-dir"],
)
def test_file_errors_exit_2(capsys, tmp_path, argv, reason):
    latin1 = tmp_path / "latin1.cor"
    latin1.write_bytes(b"fn caf\xe9() {}\n")  # "café" in Latin-1
    paths = {"dir": str(tmp_path), "latin1": str(latin1)}
    code, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert (code, out, err) == (2, "", f"error: {reason.format(**paths)}\n")
