"""Command line entry point.

Subcommands: check, run, run-abstract, translate, solve, bisim, oracle,
corpus-list.  Exit codes: 0 success/verified, 1 refuted/violated,
2 usage or tool error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shlex
import sys as _sys

from . import aos
from . import corpus
from . import cos
from . import harness
from . import logic as L
from . import parser as cor_parser
from . import smtlib
from . import syntax as S
from . import translate as T
from . import typeck
from . import values as V

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_ERROR = 2


def _parse(parse, text: str):
    """parse(text), with input nested past the recursion limit reported
    as an error rather than a crash."""
    try:
        return parse(text)
    except RecursionError:
        raise S.CorError("input nested too deeply") from None


def _load(path: str) -> S.Program:
    try:
        source = corpus.resolve_path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise S.CorError(f"no such file: {path}") from None
    except OSError as e:
        raise S.CorError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise S.CorError(f"cannot read {path}: not UTF-8 ({e.reason} at byte {e.start})") from None
    return _parse(cor_parser.parse_program, source)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise S.CorError(f"cannot write {path}: {e.strerror}") from None


def _int_range(lo: int, hi: int, flags: str) -> tuple[int, int]:
    """Reject an empty integer range given on the command line."""
    if lo > hi:
        raise S.CorError(f"{flags}: empty integer range {lo}..{hi}")
    return lo, hi


def _at_least(n: int, least: int, flag: str) -> int:
    """Reject a count given on the command line that leaves a check
    with nothing to check."""
    if n < least:
        raise S.CorError(f"{flag}: {n} is below {least}, nothing would be checked")
    return n


def _emit(args, payload: dict, human: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps({"schema": 1, **payload}, indent=2))
    else:
        print(human)


def cmd_check(args) -> int:
    prog = _load(args.file)
    typing = typeck.type_program(prog)
    if args.dump_contexts is not None:
        blob = json.dumps(typeck.typing_json(prog, typing), indent=2, sort_keys=True)
        if args.dump_contexts == "-":
            print(blob)
        else:
            _write(args.dump_contexts, blob + "\n")
    n = sum(len(fn.body) for fn in prog)
    _emit(args, {"functions": sorted(prog.functions), "labels": n},
          f"ok: {len(prog.functions)} functions, {n} labels typed")
    return EXIT_OK


def cmd_run(args) -> int:
    """`run` on the heap interpreter, `run-abstract` on the prophecy one."""
    prog = _load(args.file)
    inputs = _parse(cor_parser.parse_value_list, args.args)
    kw = dict(seed=args.seed, fuel=_at_least(args.fuel, 0, "--fuel"),
              rand_range=_int_range(args.rand_lo, args.rand_hi, "--rand-lo/--rand-hi"),
              keep_trace=args.trace is not None)
    if args.command == "run":
        out = cos.run(prog, args.fn, inputs, **kw)
    else:
        out = aos.run(prog, args.fn, inputs, check_safety=args.check_safety, **kw)
    if args.trace:
        _write(args.trace, "".join(json.dumps(cfg.to_json()) + "\n" for cfg in out.trace))
    if out.status == "returned":
        payload = {"status": "returned", "value": V.to_json(out.value), "steps": out.steps}
        if args.command == "run":
            payload["leaked_cells"] = list(out.leaked)
        _emit(args, payload, f"returned {V.show(out.value)} after {out.steps} steps")
        return EXIT_OK
    _emit(args, {"status": out.status, "reason": out.reason, "steps": out.steps},
          f"{out.status} after {out.steps} steps {out.reason}")
    return EXIT_ERROR


def cmd_translate(args) -> int:
    prog = _load(args.file)
    sys_ = T.translate_program(prog)
    if args.goal:
        sys_ = T.attach_goal(sys_, prog, _parse(T.GoalSpec.parse, args.goal))
    text = smtlib.emit_smt2(sys_) if args.format == "smt2" else T.render_system(sys_)
    if args.output:
        _write(args.output, text)
        print(f"wrote {len(sys_.clauses)} clauses to {args.output}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_solve(args) -> int:
    prog = _load(args.file)
    sys_ = T.translate_program(prog)
    sys_ = T.attach_goal(sys_, prog, _parse(T.GoalSpec.parse, args.goal))
    script = smtlib.emit_smt2(sys_)
    command = args.solver_cmd or os.environ.get("CORHORN_SOLVER")
    if command:
        cfg = smtlib.solver_from_command(command, timeout=args.timeout)
    else:
        cfg = smtlib.find_solver(args.timeout)
    if cfg is None:
        print("no solver: pass --solver-cmd, set CORHORN_SOLVER or install z3 or hoice", file=_sys.stderr)
        return EXIT_ERROR
    verdict = smtlib.run_solver(cfg, script)
    payload = {"verdict": verdict.status, "solver": list(cfg.command)}
    if verdict.holds is True:
        _emit(args, payload, f"verified: property holds ({verdict.status})")
        return EXIT_OK
    if verdict.holds is False:
        _emit(args, payload, f"refuted: property violated ({verdict.status})")
        return EXIT_REFUTED
    _emit(args, {**payload, "detail": verdict.detail}, f"no verdict: {verdict.status} {verdict.detail}")
    return EXIT_ERROR


_BISIM_DEFAULTS = {"fuel": 400, "rand_lo": -8, "rand_hi": 8}


def _bisim_repro(args, draws: int) -> str:
    """The command line that reruns the draw-th draw of `corhorn bisim`
    as its last run: the command's RNG draws only each run's inputs and
    interpreter seed, so the first draws of a shorter run are the same."""
    words = ["corhorn", "bisim", args.file, "--fn", args.fn,
             "--seed", str(args.seed), "--runs", str(draws)]
    for dest, default in _BISIM_DEFAULTS.items():
        if getattr(args, dest) != default:
            words += [f"--{dest.replace('_', '-')}", str(getattr(args, dest))]
    return shlex.join(words)


def cmd_bisim(args) -> int:
    prog = _load(args.file)
    typing = typeck.type_program(prog)
    rng = random.Random(args.seed)
    rand_range = _int_range(args.rand_lo, args.rand_hi, "--rand-lo/--rand-hi")
    spec = L.SampleSpec(*rand_range, max_depth=3)
    kw = dict(fuel=_at_least(args.fuel, 0, "--fuel"), typing=typing, rand_range=rand_range)
    failures = []
    runs = out_of_fuel = 0
    for draw in range(1, _at_least(args.runs, 1, "--runs") + 1):
        inputs = corpus.random_inputs(prog, args.fn, rng, spec)
        seed = rng.randrange(2 ** 31)
        r1 = harness.lockstep_cos_aos(prog, args.fn, inputs, seed=seed, **kw)
        r2 = harness.lockstep_aos_sldc(prog, args.fn, inputs, seed=seed, **kw)
        runs += 2
        for kind, rep in (("cos-aos", r1), ("aos-sldc", r2)):
            out_of_fuel += rep.detail == rep.FUEL_OUT
            if not rep.ok:
                failures.append({"kind": kind, "inputs": [V.show(v) for v in inputs],
                                 "seed": seed, "report": rep.to_json(),
                                 "repro": _bisim_repro(args, draw)})
    payload = {"runs": runs, "failures": failures, "out_of_fuel": out_of_fuel}
    fuel_note = f", {out_of_fuel} ended at fuel" if out_of_fuel else ""
    human = f"{runs} lockstep runs, {len(failures)} divergences{fuel_note}"
    if failures:
        human += f"\nfirst divergence reruns with: {failures[0]['repro']}"
    _emit(args, payload, human)
    return EXIT_OK if not failures else EXIT_REFUTED


def cmd_oracle(args) -> int:
    prog = _load(args.file)
    fn = prog.fn(args.fn)
    rand_range = _int_range(-args.range, args.range, "--range")
    seeds = range(_at_least(args.run_seeds, 1, "--run-seeds"))
    depth = _at_least(args.depth, 1, "--depth")
    spec = L.SampleSpec(*rand_range, max_depth=3)
    sorts = [T.sort_of_type(t) for _, t in fn.params]
    rng = random.Random(args.seed)
    tuples = list(L.valuations(sorts, spec, rng, args.max_exhaustive, args.samples))
    if not tuples:  # only a drawn domain gives none, when --samples is below 1
        _at_least(args.samples, 1, "--samples")
    rep = harness.oracle_diff(
        prog, args.fn, tuples, seeds=seeds, depth=depth,
        rand_range=rand_range,
    )
    payload = {**rep.to_json(), "sldc": {"steps": rep.sldc_steps, "dedup_hits": rep.dedup_hits,
                                         "merged": rep.merged}}
    _emit(args, payload,
          f"{rep.checked} inputs checked, {rep.returned} returned, "
          f"{len(rep.misses)} misses, {rep.budget_flags} budget flags")
    if rep.stuck:
        print(f"note: {rep.stuck} heap runs got stuck, a fault of the heap semantics",
              file=_sys.stderr)
    if rep.ok:
        return EXIT_OK
    if rep.refuted:
        return EXIT_REFUTED
    print(f"no verdict: all {len(rep.misses)} misses come from enumerations cut short by "
          "their budget; a larger --depth may decide", file=_sys.stderr)
    return EXIT_ERROR


def cmd_corpus_list(args) -> int:
    rows = []
    for e in corpus.CORPUS:
        rows.append({"name": e.name, "file": str(corpus.source_path(e.name)),
                     "entry": e.entry_fn, "safe": e.safe, "goal": e.goal})
    if getattr(args, "json", False):
        print(json.dumps({"schema": 1, "corpus": rows}, indent=2))
    else:
        for r in rows:
            tag = "safe  " if r["safe"] else "unsafe"
            print(f"{r['name']:24} {tag} entry={r['entry']:16} goal={r['goal']!r}")
    return EXIT_OK


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="corhorn", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, fn_required=True):
        p.add_argument("file")
        if fn_required:
            p.add_argument("--fn", required=True)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("check", help="type check a program")
    p.add_argument("file")
    p.add_argument("--dump-contexts", nargs="?", const="-", default=None,
                   metavar="OUT.json", help="write per-label contexts as JSON ('-' = stdout)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    for name in ("run", "run-abstract"):
        p = sub.add_parser(name, help=f"{name} a simple function")
        common(p)
        p.add_argument("--args", default="", help="comma-separated value literals, e.g. 'box(4), box(3)'")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--fuel", type=int, default=100_000)
        p.add_argument("--rand-lo", type=int, default=-128)
        p.add_argument("--rand-hi", type=int, default=127)
        p.add_argument("--trace", metavar="OUT.jsonl")
        if name == "run-abstract":
            p.add_argument("--check-safety", action="store_true")
        p.set_defaults(func=cmd_run)

    p = sub.add_parser("translate", help="emit the clause system")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.add_argument("--format", choices=("internal", "smt2"), default="internal")
    p.add_argument("--goal", help="e.g. 'inc_max returns true'")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("solve", help="translate and run an external CHC solver")
    p.add_argument("file")
    p.add_argument("--goal", required=True)
    p.add_argument("--solver-cmd", help="defaults to $CORHORN_SOLVER")
    p.add_argument("--timeout", type=float, default=180.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bisim", help="lockstep interpreter/resolution runs")
    common(p)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    for dest, default in _BISIM_DEFAULTS.items():
        p.add_argument(f"--{dest.replace('_', '-')}", type=int, default=default)
    p.set_defaults(func=cmd_bisim)

    p = sub.add_parser("oracle", help="differential test: heap runs vs resolution")
    common(p)
    p.add_argument("--range", type=int, default=8)
    p.add_argument("--depth", type=int, default=64)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--run-seeds", type=int, default=3)
    p.add_argument("--max-exhaustive", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("corpus-list", help="list bundled benchmark programs")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_corpus_list)
    return ap


def main(argv=None) -> int:
    ap = build_arg_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_ERROR if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except S.CorError as e:
        print(f"error: {e}", file=_sys.stderr)
        return EXIT_ERROR
    except ValueError as e:
        # Python refuses to print an int past sys.get_int_max_str_digits(),
        # the same limit that makes the parser reject such a literal.
        if "integer string conversion" not in str(e):
            raise
        print("error: a result value is too large to print", file=_sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
