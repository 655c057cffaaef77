import json
import stat

from corhorn import cli, corpus


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


def test_oracle_command(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", INC_MAX, "--fn", "inc_max", "--range", "2",
        "--depth", "40", "--run-seeds", "1", "--json",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["ok"] and blob["checked"] == 25


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
