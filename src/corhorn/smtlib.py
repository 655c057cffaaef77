"""SMT-LIB 2 emission (HORN logic) and external solver driving.

Every composite sort becomes a named algebraic datatype; equivalent
sorts (up to mu-unfolding) share one declaration, so a recursive sort
and its unfolding meet in the same SMT sort.  Head patterns compile to
fresh universally quantified variables constrained by constructor
equations in the body, the standard shape CHC solvers accept.
"""

from __future__ import annotations

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


_NAME_PREFIX = {L.UnitSort: "Unit", L.BoxS: "Box", L.MutS: "Mut", L.SumS: "Sum", L.ProdS: "Prod"}


def _components(s: Sort) -> list[Sort]:
    if isinstance(s, (L.BoxS, L.MutS)):
        return [s.inner]
    if isinstance(s, (L.SumS, L.ProdS)):
        return [s.left, s.right]
    return []


def _shape(s: Sort, depth: int = 3) -> tuple:
    """Constructor tags of s unfolded to a fixed depth.  Equivalent sorts
    unfold to the same tree, so they have equal shapes."""
    s = L.whnf_sort(s)
    return (type(s), tuple(_shape(c, depth - 1) for c in _components(s)) if depth else ())


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
        s = L.whnf_sort(sort)
        if isinstance(s, L.IntSort):
            return "Int"
        shape = _shape(s)
        found = self._lookup(s, shape)
        if found is not None:
            return found
        key = L.canon_sort(s)
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
        if type(s) not in _NAME_PREFIX:
            raise EmitError(f"cannot name sort {L.render_sort(s)}")
        return "_".join([_NAME_PREFIX[type(s)]] + [self.name(c) for c in _components(s)])

    def declarations(self) -> str:
        """One mutually recursive declare-datatypes group, in first-need
        order."""
        decls = []
        ctors = []
        for rep, name in self.reps:
            if isinstance(rep, L.IntSort):
                continue
            decls.append(f"({name} 0)")
            if isinstance(rep, L.UnitSort):
                ctors.append(f"((mk_{name}))")
            elif isinstance(rep, L.BoxS):
                ctors.append(f"((mk_{name} (cur_{name} {self.name(rep.inner)})))")
            elif isinstance(rep, L.MutS):
                inner = self.name(rep.inner)
                ctors.append(f"((mk_{name} (cur_{name} {inner}) (proph_{name} {inner})))")
            elif isinstance(rep, L.SumS):
                ctors.append(
                    f"((inj0_{name} (pay0_{name} {self.name(rep.left)})) "
                    f"(inj1_{name} (pay1_{name} {self.name(rep.right)})))"
                )
            elif isinstance(rep, L.ProdS):
                ctors.append(
                    f"((mk_{name} (fst_{name} {self.name(rep.left)}) "
                    f"(snd_{name} {self.name(rep.right)})))"
                )
            else:
                raise EmitError(f"cannot declare {L.render_sort(rep)}")
        if not decls:
            return ""
        return f"(declare-datatypes ({' '.join(decls)}) ({' '.join(ctors)}))"


def _smt_var(name: str) -> str:
    # '!' is legal in SMT simple symbols; '@' and '#' are not in our names
    return name.replace("◦", "o")


class _Emitter:
    def __init__(self, sys: CHCSystem):
        self.sys = sys
        self.table = SortTable()

    def term(self, t: V.Term, delta: dict[str, Sort], expect: Optional[Sort] = None) -> tuple[str, Sort]:
        ew = L.whnf_sort(expect) if expect is not None else None
        if isinstance(t, bool):
            raise EmitError("Python bool leaked into a term")
        if isinstance(t, int):
            return (str(t) if t >= 0 else f"(- {-t})", L.INT_S)
        if isinstance(t, V.UnitVal):
            return (f"mk_{self.table.name(L.UNIT_S)}", L.UNIT_S)
        if isinstance(t, V.Var):
            return (_smt_var(t.name), delta[t.name])
        if isinstance(t, V.Box):
            inner, s = self.term(t.inner, delta, ew.inner if isinstance(ew, L.BoxS) else None)
            name = self.table.name(L.BoxS(s))
            return (f"(mk_{name} {inner})", L.BoxS(s))
        if isinstance(t, V.MutPair):
            hint = ew.inner if isinstance(ew, L.MutS) else None
            cur, s = self.term(t.cur, delta, hint)
            fin, s2 = self.term(t.fin, delta, hint)
            if not L.sort_equiv(s, s2):
                raise EmitError("mut components of different sorts")
            name = self.table.name(L.MutS(s))
            return (f"(mk_{name} {cur} {fin})", L.MutS(s))
        if isinstance(t, V.Inj):
            if not isinstance(ew, L.SumS):
                raise EmitError(f"cannot determine sum sort for {V.show(t)}")
            side = ew.left if t.tag == 0 else ew.right
            payload, _ = self.term(t.payload, delta, side)
            name = self.table.name(ew)
            return (f"(inj{t.tag}_{name} {payload})", ew)
        if isinstance(t, V.Pair):
            a, sa = self.term(t.fst, delta, ew.left if isinstance(ew, L.ProdS) else None)
            b, sb = self.term(t.snd, delta, ew.right if isinstance(ew, L.ProdS) else None)
            name = self.table.name(L.ProdS(sa, sb))
            return (f"(mk_{name} {a} {b})", L.ProdS(sa, sb))
        if isinstance(t, V.DerefT):
            inner, s = self.term(t.arg, delta)
            sw = L.whnf_sort(s)
            name = self.table.name(sw)
            if isinstance(sw, (L.BoxS, L.MutS)):
                return (f"(cur_{name} {inner})", sw.inner)
            raise EmitError(f"* at sort {L.render_sort(s)}")
        if isinstance(t, V.FinalT):
            inner, s = self.term(t.arg, delta)
            sw = L.whnf_sort(s)
            if isinstance(sw, L.MutS):
                return (f"(proph_{self.table.name(sw)} {inner})", sw.inner)
            raise EmitError(f"^ at sort {L.render_sort(s)}")
        if isinstance(t, V.ProjT):
            inner, s = self.term(t.arg, delta)
            sw = L.whnf_sort(s)
            if isinstance(sw, L.ProdS):
                sel = "fst" if t.index == 0 else "snd"
                side = sw.left if t.index == 0 else sw.right
                return (f"({sel}_{self.table.name(sw)} {inner})", side)
            raise EmitError(f"projection at sort {L.render_sort(s)}")
        if isinstance(t, V.BinOpT):
            a, _ = self.term(t.left, delta)
            b, _ = self.term(t.right, delta)
            op_map = {"+": "+", "-": "-", "*": "*", ">=": ">=", "<=": "<=",
                      "<": "<", ">": ">", "==": "=", "!=": "distinct"}
            smt_op = op_map[t.op]
            if t.op in S.INT_OPS:
                return (f"({smt_op} {a} {b})", L.INT_S)
            bool_name = self.table.name(L.BOOL_S)
            unit_name = self.table.name(L.UNIT_S)
            tru = f"(inj1_{bool_name} mk_{unit_name})"
            fls = f"(inj0_{bool_name} mk_{unit_name})"
            return (f"(ite ({smt_op} {a} {b}) {tru} {fls})", L.BOOL_S)
        raise EmitError(f"cannot emit term {t!r}")

    def atom(self, atom: Atom, delta: dict[str, Sort]) -> str:
        if not atom.args:
            return _smt_var(atom.pred)
        sig = self.sys.sigs[atom.pred]
        args = " ".join(self.term(a, delta, s)[0] for a, s in zip(atom.args, sig))
        return f"({_smt_var(atom.pred)} {args})"

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
                    head_args.append(_smt_var(pat.name))
                else:
                    h = f"h!{i}"
                    extra_binders.append((h, sort))
                    delta[h] = sort
                    pat_txt, _ = self.term(pat, delta, sort)
                    conjuncts.append(f"(= {_smt_var(h)} {pat_txt})")
                    head_args.append(_smt_var(h))
            if head_args:
                head_txt = f"({_smt_var(clause.head.pred)} {' '.join(head_args)})"
            else:
                head_txt = _smt_var(clause.head.pred)
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
        quant = " ".join(f"({_smt_var(x)} {self.table.name(s)})" for x, s in binders)
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
        lines.append(f"(declare-fun {_smt_var(pred)} ({args}) Bool)")
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
    kind: str = "generic"  # 'spacer' | 'hoice' | 'generic'

    def __post_init__(self):
        if self.timeout <= 0:
            raise S.CorError("solver timeout must be positive")


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
    parts = tuple(command.split())
    kind = "generic"
    joined = " ".join(parts).lower()
    if "spacer" in joined or parts[:1] == ("z3",):
        kind = "spacer"
    elif "hoice" in joined:
        kind = "hoice"
    return SolverConfig(parts, timeout, kind)


def probe_solver(cfg: SolverConfig) -> bool:
    """True iff the solver runs and answers sat on a one-clause HORN script."""
    probe = "(set-logic HORN)\n(declare-fun p () Bool)\n(assert (=> true p))\n(check-sat)\n"
    return run_solver(cfg, probe).status == "sat"


def find_solver(timeout: float = 180.0) -> Optional[SolverConfig]:
    """The first installed CHC solver that passes the probe: z3 (Spacer),
    hoice, or the tools/z3wasm node wrapper of a source checkout."""
    wrapper = Path(__file__).resolve().parents[2] / "tools" / "z3wasm"
    for command, kind, present in (
        (("z3", "fp.engine=spacer"), "spacer", shutil.which("z3")),
        (("hoice",), "hoice", shutil.which("hoice")),
        ((str(wrapper),), "spacer", wrapper.exists() and shutil.which("node")),
    ):
        cfg = SolverConfig(command, timeout, kind)
        if present and probe_solver(cfg):
            return cfg
    return None
