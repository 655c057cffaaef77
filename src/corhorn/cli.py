"""Command line entry point.

Subcommands: check, run, run-abstract, translate, solve, bisim, oracle,
corpus-list.  Exit codes: 0 success/verified, 1 refuted/violated,
2 usage or tool error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
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


def _load(path: str) -> S.Program:
    source = corpus.resolve_path(path).read_text()
    return cor_parser.parse_program(source)


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
            with open(args.dump_contexts, "w") as fh:
                fh.write(blob + "\n")
    n = sum(len(fn.body) for fn in prog)
    _emit(args, {"functions": sorted(prog.functions), "labels": n},
          f"ok: {len(prog.functions)} functions, {n} labels typed")
    return EXIT_OK


def _write_trace(path: str, trace) -> None:
    with open(path, "w") as fh:
        for cfg in trace:
            fh.write(json.dumps(cfg.to_json()) + "\n")


def cmd_run(args) -> int:
    prog = _load(args.file)
    inputs = cor_parser.parse_value_list(args.args)
    out = cos.run(
        prog, args.fn, inputs, seed=args.seed, fuel=args.fuel,
        rand_range=(args.rand_lo, args.rand_hi), keep_trace=args.trace is not None,
    )
    if args.trace:
        _write_trace(args.trace, out.trace)
    if out.status == "returned":
        _emit(args, {"status": "returned", "value": V.to_json(out.value), "steps": out.steps,
                     "leaked_cells": list(out.leaked)},
              f"returned {V.show(out.value)} after {out.steps} steps")
        return EXIT_OK
    _emit(args, {"status": out.status, "reason": out.reason, "steps": out.steps},
          f"{out.status} after {out.steps} steps {out.reason}")
    return EXIT_ERROR


def cmd_run_abstract(args) -> int:
    prog = _load(args.file)
    inputs = cor_parser.parse_value_list(args.args)
    out = aos.run(
        prog, args.fn, inputs, seed=args.seed, fuel=args.fuel,
        rand_range=(args.rand_lo, args.rand_hi),
        keep_trace=args.trace is not None, check_safety=args.check_safety,
    )
    if args.trace:
        _write_trace(args.trace, out.trace)
    if out.status == "returned":
        _emit(args, {"status": "returned", "value": V.to_json(out.value), "steps": out.steps},
              f"returned {V.show(out.value)} after {out.steps} steps")
        return EXIT_OK
    _emit(args, {"status": out.status, "reason": out.reason, "steps": out.steps},
          f"{out.status} after {out.steps} steps {out.reason}")
    return EXIT_ERROR


def cmd_translate(args) -> int:
    prog = _load(args.file)
    sys_ = T.translate_program(prog)
    if args.goal:
        sys_ = T.attach_goal(sys_, prog, T.GoalSpec.parse(args.goal))
    text = smtlib.emit_smt2(sys_) if args.format == "smt2" else T.render_system(sys_)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {len(sys_.clauses)} clauses to {args.output}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_solve(args) -> int:
    prog = _load(args.file)
    sys_ = T.translate_program(prog)
    sys_ = T.attach_goal(sys_, prog, T.GoalSpec.parse(args.goal))
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


def cmd_bisim(args) -> int:
    prog = _load(args.file)
    typing = typeck.type_program(prog)
    rng = random.Random(args.seed)
    spec = L.SampleSpec(args.rand_lo, args.rand_hi, max_depth=3)
    failures = []
    runs = 0
    for _ in range(args.runs):
        inputs = corpus.random_inputs(prog, args.fn, rng, spec)
        seed = rng.randrange(2 ** 31)
        r1 = harness.lockstep_cos_aos(prog, args.fn, inputs, seed=seed, fuel=args.fuel, typing=typing)
        r2 = harness.lockstep_aos_sldc(prog, args.fn, inputs, seed=seed, fuel=args.fuel, typing=typing)
        runs += 2
        for kind, rep in (("cos-aos", r1), ("aos-sldc", r2)):
            if not rep.ok:
                failures.append({"kind": kind, "inputs": [V.show(v) for v in inputs],
                                 "seed": seed, "report": rep.to_json()})
    payload = {"runs": runs, "failures": failures}
    _emit(args, payload, f"{runs} lockstep runs, {len(failures)} divergences")
    return EXIT_OK if not failures else EXIT_REFUTED


def cmd_oracle(args) -> int:
    prog = _load(args.file)
    fn = prog.fn(args.fn)
    spec = L.SampleSpec(-args.range, args.range, max_depth=3)
    arg_sorts = [T.sort_of_type(t) for _, t in fn.params]
    total = 1
    for s in arg_sorts:
        total *= max(L.count_values(s, spec), 1)
    if total <= args.max_exhaustive:
        domains = [L.enumerate_values(s, spec) for s in arg_sorts]
        tuples = list(itertools.product(*domains))
    else:
        rng = random.Random(args.seed)
        tuples = [
            tuple(L.random_value(s, spec, rng) for s in arg_sorts)
            for _ in range(args.samples)
        ]
    rep = harness.oracle_diff(
        prog, args.fn, tuples, seeds=range(args.run_seeds), depth=args.depth,
        rand_range=(-args.range, args.range),
    )
    _emit(args, rep.to_json(),
          f"{rep.checked} inputs checked, {rep.returned} returned, "
          f"{len(rep.misses)} misses, {rep.budget_flags} budget flags")
    return EXIT_OK if rep.ok else EXIT_REFUTED


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

    for name, fun in (("run", cmd_run), ("run-abstract", cmd_run_abstract)):
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
        p.set_defaults(func=fun)

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
    p.add_argument("--fuel", type=int, default=400)
    p.add_argument("--rand-lo", type=int, default=-8)
    p.add_argument("--rand-hi", type=int, default=8)
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
    except FileNotFoundError as e:
        print(f"error: no such file: {e}", file=_sys.stderr)
        return EXIT_ERROR
    except S.CorError as e:
        print(f"error: {e}", file=_sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
