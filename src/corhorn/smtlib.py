"""SMT-LIB 2 emission (HORN logic) and external solver driving.

Every composite sort becomes a named algebraic datatype; equivalent
sorts (up to mu-unfolding) share one declaration, so a recursive sort
and its unfolding meet in the same SMT sort.  Head patterns compile to
fresh universally quantified variables constrained by constructor
equations in the body, the standard shape CHC solvers accept.

Names are written as they are: Cor identifiers are ASCII and none is an
SMT-LIB reserved word or a core symbol the emitter applies
(`syntax.check_ident`), and the names translate and the emitter make
add only '!', '_', digits and ASCII letters, so every one is an SMT-LIB
simple symbol.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import logic as L
from . import syntax as S
from . import values as V
from .logic import Atom, CHCSystem, Clause, Sort


class EmitError(S.CorError):
    pass


# The SMT datatype of each composite sort node class (the unit, sum and
# product nodes that sorts share with types, and logic's box and mut):
# the prefix of its name, then per constructor its selectors, each with
# the sort field it reads.
# A datatype named N has constructors <ctor>_N and selectors <sel>_N.
_DATATYPES = {
    S.UnitT: ("Unit", {
        "mk": (),
    }),
    L.BoxS: ("Box", {
        "mk": (("cur", "inner"),),
    }),
    L.MutS: ("Mut", {
        "mk": (("cur", "inner"), ("proph", "inner")),
    }),
    S.Sum: ("Sum", {
        "inj0": (("pay0", "left"),),
        "inj1": (("pay1", "right"),),
    }),
    S.Prod: ("Prod", {
        "mk": (("fst", "left"), ("snd", "right")),
    }),
}


def _shape(s: Sort, depth: int = 3) -> tuple:
    """Constructor tags of s unfolded to a fixed depth.  Equivalent sorts
    unfold to the same tree, so they have equal shapes."""
    s = S.whnf(s)
    return (type(s), tuple(_shape(c, depth - 1) for c in S.children(s)) if depth else ())


class SortTable:
    """Names for sorts, deduplicated up to sort equivalence.

    Names are descriptive (Box_Int, Sum_Unit_Unit, ...) except where a
    sort's name would depend on itself through its components; such a
    sort gets an opaque RecN name, assigned the moment the cycle closes.

    `reps` is append-only and a sort is named after the *first* rep it is
    equivalent to, so a name, once returned, never changes.  That makes
    the per-sort memo exact, and so is searching only the reps of the
    same shape: an equivalent rep always has the sort's shape, and a
    bucket keeps the order of `reps`.
    """

    def __init__(self):
        self.reps: list[tuple[Sort, str]] = []
        self._buckets: dict[tuple, list[tuple[Sort, str]]] = {}
        self._memo: dict[Sort, str] = {}
        self.mu_count = 0
        self._in_progress: set = set()

    def _lookup(self, s: Sort, shape: tuple):
        for rep, name in self._buckets.get(shape, ()):
            if L.sort_equiv(rep, s):
                return name
        return None

    def _add(self, s: Sort, shape: tuple, name: str) -> str:
        self.reps.append((s, name))
        self._buckets.setdefault(shape, []).append((s, name))
        return name

    def name(self, sort: Sort) -> str:
        found = self._memo.get(sort)
        if found is None:
            found = self._memo[sort] = self._name(sort)
        return found

    def _name(self, sort: Sort) -> str:
        s = S.whnf(sort)
        if isinstance(s, S.IntT):
            return "Int"
        shape = _shape(s)
        found = self._lookup(s, shape)
        if found is not None:
            return found
        key = S.canon(s)
        if key in self._in_progress:
            self.mu_count += 1
            return self._add(s, shape, f"Rec{self.mu_count - 1}")
        self._in_progress.add(key)
        try:
            name = self._make_name(s)
        finally:
            self._in_progress.discard(key)
        # a component call may have closed the cycle and named s already
        return self._lookup(s, shape) or self._add(s, shape, name)

    def _make_name(self, s: Sort) -> str:
        if type(s) not in _DATATYPES:
            raise EmitError(f"cannot name sort {S.type_text(s)}")
        prefix, _ = _DATATYPES[type(s)]
        return "_".join([prefix] + [self.name(c) for c in S.children(s)])

    def declarations(self) -> str:
        """One mutually recursive declare-datatypes group, in first-need
        order."""
        decls = []
        bodies = []
        for rep, name in self.reps:
            _, ctors = _DATATYPES[type(rep)]
            alts = []
            for ctor, selectors in ctors.items():
                sels = "".join(f" ({sel}_{name} {self.name(getattr(rep, f))})" for sel, f in selectors)
                alts.append(f"({ctor}_{name}{sels})")
            decls.append(f"({name} 0)")
            bodies.append(f"({' '.join(alts)})")
        if not decls:
            return ""
        return f"(declare-datatypes ({' '.join(decls)}) ({' '.join(bodies)}))"


_SMT_OPS = {"+": "+", "-": "-", "*": "*", ">=": ">=", "<=": "<=",
            "<": "<", ">": ">", "==": "=", "!=": "distinct"}


def _app(head: str, args: list[str]) -> str:
    """An application, or the bare symbol when there are no arguments."""
    return f"({head} {' '.join(args)})" if args else head


class _Emitter:
    def __init__(self, sys: CHCSystem):
        self.sys = sys
        self.table = SortTable()

    def term(self, t: V.Term, delta: dict[str, Sort], sort: Sort) -> str:
        """t at a position of the given sort, which an int or a variable
        must have (the same datatype name).  Constructors name their
        datatype from that sort, selectors from their argument's sort."""
        if isinstance(t, bool):
            raise EmitError("Python bool leaked into a term")
        if isinstance(t, (int, V.Var)):
            own = L.INT_S if isinstance(t, int) else delta.get(t.name)
            if own is not sort and (own is None or self.table.name(own) != self.table.name(sort)):
                raise EmitError(f"{V.show(t)} at sort {S.type_text(sort)}")
            if isinstance(t, V.Var):
                return t.name
            return str(t) if t >= 0 else f"(- {-t})"
        if isinstance(t, V.UnitVal):
            return self._construct(t, delta, sort, S.UnitT, "mk", ())
        if isinstance(t, V.Box):
            return self._construct(t, delta, sort, L.BoxS, "mk", (t.inner,))
        if isinstance(t, V.MutPair):
            return self._construct(t, delta, sort, L.MutS, "mk", (t.cur, t.fin))
        if isinstance(t, V.Inj):
            return self._construct(t, delta, sort, S.Sum, f"inj{t.tag}", (t.payload,))
        if isinstance(t, V.Pair):
            return self._construct(t, delta, sort, S.Prod, "mk", (t.fst, t.snd))
        if isinstance(t, V.DerefT):
            return self._select(t, delta, (L.BoxS, L.MutS), "cur")
        if isinstance(t, V.FinalT):
            return self._select(t, delta, (L.MutS,), "proph")
        if isinstance(t, V.ProjT):
            return self._select(t, delta, (S.Prod,), "fst" if t.index == 0 else "snd")
        if isinstance(t, V.BinOpT):
            a = self.term(t.left, delta, L.INT_S)
            b = self.term(t.right, delta, L.INT_S)
            if t.op in S.INT_OPS:
                return f"({_SMT_OPS[t.op]} {a} {b})"
            tru = self.term(V.TRUE, delta, L.BOOL_S)
            fls = self.term(V.FALSE, delta, L.BOOL_S)
            return f"(ite ({_SMT_OPS[t.op]} {a} {b}) {tru} {fls})"
        raise EmitError(f"cannot emit term {t!r}")

    def _construct(self, t, delta, sort: Sort, sort_class: type, ctor: str, args: tuple) -> str:
        s = S.whnf(sort)
        if not isinstance(s, sort_class):
            raise EmitError(f"{V.show(t)} at sort {S.type_text(s)}")
        name = self.table.name(s)
        _, ctors = _DATATYPES[sort_class]
        parts = [self.term(a, delta, getattr(s, f)) for a, (_, f) in zip(args, ctors[ctor])]
        return _app(f"{ctor}_{name}", parts)

    def _select(self, t, delta, sort_classes: tuple, sel: str) -> str:
        s = S.whnf(L.sort_of_term(delta, t.arg))
        if not isinstance(s, sort_classes):
            raise EmitError(f"{V.show(t)} at argument sort {S.type_text(s)}")
        return f"({sel}_{self.table.name(s)} {self.term(t.arg, delta, s)})"

    def atom(self, atom: Atom, delta: dict[str, Sort]) -> str:
        sig = self.sys.sigs[atom.pred]
        return _app(atom.pred, [self.term(a, delta, s) for a, s in zip(atom.args, sig)])

    def clause(self, clause: Clause) -> str:
        delta = dict(clause.binders)
        conjuncts = []
        head_txt = "false"
        extra_binders: list[tuple[str, Sort]] = []
        if clause.head is not None:
            sig = self.sys.sigs[clause.head.pred]
            head_args = []
            for i, (pat, sort) in enumerate(zip(clause.head.args, sig)):
                if isinstance(pat, V.Var):
                    head_args.append(self.term(pat, delta, sort))
                else:
                    h = f"h!{i}"
                    extra_binders.append((h, sort))
                    conjuncts.append(f"(= {h} {self.term(pat, delta, sort)})")
                    head_args.append(h)
            head_txt = _app(clause.head.pred, head_args)
        for a in clause.body:
            conjuncts.append(self.atom(a, delta))
        if not conjuncts:
            body_txt = "true"
        elif len(conjuncts) == 1:
            body_txt = conjuncts[0]
        else:
            body_txt = f"(and {' '.join(conjuncts)})"
        binders = list(clause.binders) + extra_binders
        impl = f"(=> {body_txt} {head_txt})"
        if not binders:
            return f"(assert {impl})"
        quant = " ".join(f"({x} {self.table.name(s)})" for x, s in binders)
        return f"(assert (forall ({quant}) {impl}))"


def emit_smt2(sys: CHCSystem) -> str:
    """Deterministic SMT-LIB 2 script for the system: datatypes first,
    predicate declarations, one assert per clause, check-sat."""
    em = _Emitter(sys)
    # visit signature sorts first so datatype names are stable
    for pred in sys.sigs:
        for sort in sys.sigs[pred]:
            em.table.name(sort)
    clause_texts = [em.clause(c) for c in sys.clauses]
    lines = ["(set-logic HORN)"]
    decls = em.table.declarations()
    if decls:
        lines.append(decls)
    for pred, sig in sys.sigs.items():
        args = " ".join(em.table.name(s) for s in sig)
        lines.append(f"(declare-fun {pred} ({args}) Bool)")
    lines.extend(clause_texts)
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Solver subprocess client
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolverConfig:
    command: tuple[str, ...]  # script filename is appended
    timeout: float = 180.0

    def __post_init__(self):
        if not self.command:
            raise S.CorError("solver command is empty")
        if self.timeout <= 0:
            raise S.CorError("solver timeout must be positive")
        if not math.isfinite(self.timeout):
            raise S.CorError("solver timeout must be finite")


@dataclass(frozen=True)
class SolverVerdict:
    status: str  # 'sat' | 'unsat' | 'unknown' | 'timeout' | 'error'
    detail: str = ""

    @property
    def holds(self) -> Optional[bool]:
        """sat means every clause is satisfiable: the property holds."""
        if self.status == "sat":
            return True
        if self.status == "unsat":
            return False
        return None


def run_solver(cfg: SolverConfig, script: str) -> SolverVerdict:
    """Write the script to a temp file, run the solver, parse the first
    sat/unsat/unknown token of its output."""
    with tempfile.NamedTemporaryFile(
        "w", suffix=".smt2", prefix="corhorn_", delete=False
    ) as tmp:
        tmp.write(script)
        path = tmp.name
    try:
        proc = subprocess.run(
            list(cfg.command) + [path],
            capture_output=True,
            text=True,
            timeout=cfg.timeout,
        )
    except subprocess.TimeoutExpired:
        return SolverVerdict("timeout", f"no verdict within {cfg.timeout}s")
    except OSError as e:
        return SolverVerdict("error", str(e))
    finally:
        Path(path).unlink(missing_ok=True)
    for line in proc.stdout.splitlines():
        word = line.strip()
        if word in ("sat", "unsat", "unknown"):
            return SolverVerdict(word, proc.stdout.strip())
    if proc.returncode != 0:
        return SolverVerdict("error", (proc.stdout + proc.stderr).strip())
    return SolverVerdict("unknown", proc.stdout.strip())


def solver_from_command(command: str, timeout: float = 180.0) -> SolverConfig:
    return SolverConfig(tuple(command.split()), timeout)


def probe_solver(cfg: SolverConfig) -> bool:
    """True iff the solver runs and answers sat on a one-clause HORN script."""
    probe = "(set-logic HORN)\n(declare-fun p () Bool)\n(assert (=> true p))\n(check-sat)\n"
    return run_solver(cfg, probe).status == "sat"


def find_solver(timeout: float = 180.0) -> Optional[SolverConfig]:
    """The first installed CHC solver that passes the probe: z3 (Spacer),
    hoice, or the tools/z3wasm node wrapper of a source checkout."""
    wrapper = Path(__file__).resolve().parents[2] / "tools" / "z3wasm"
    for command, present in (
        (("z3", "fp.engine=spacer"), shutil.which("z3")),
        (("hoice",), shutil.which("hoice")),
        ((str(wrapper),), wrapper.exists() and shutil.which("node")),
    ):
        cfg = SolverConfig(command, timeout)
        if present and probe_solver(cfg):
            return cfg
    return None
