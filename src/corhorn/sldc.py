"""Top-down resolution with a calculation phase (SLDC resolution).

A resolutive configuration is a stack of elementary formulas (predicate
applications whose arguments are patterns) plus a result pattern.  One
step unifies a freshly renamed clause head with the first stack entry,
head first, so that the clause's variables are bound to the goal's terms
and a configuration variable is bound only where it meets a head
constructor (a match arm's `box(inj0 c)`).  A head of distinct variables
binds each to the goal's argument without unification, as the WAM's
`get_variable` does (Warren 1983).  The rest of the stack and the result
take only the bindings of configuration variables, and are kept as
themselves when there are none.  The step replaces the first entry by
the clause's body atoms and "calculates": one walk (`logic.subst_reduce`)
binds the body's variables and reduces redexes like *box(t) or 3 + 4 by
the one redex rule `logic.reduce`, and calculation expands a variable
that blocks a *, ^ or projection redex into the constructor skeleton
its sort decides (box, mut or pair of fresh variables), and branches
over a bounded integer range when arithmetic is stuck on a symbolic
operand (the engine's documented incompleteness boundary).
Calculation normalizes only the clause body: clause heads are patterns,
so the unifier maps variables to patterns and the rest of the stack and
the result stay patterns.

Variables that survive to a result pattern are don't-care markers;
`refines_to`/`refine_default` from the logic module instantiate them.
A configuration's sorts (`Sorts`) share its parent's and add only the
variables its step drew, so building them costs nothing in the number
of variables drawn before.

`enumerate_results` explores configurations breadth first and drops a
successor it has seen before up to variable renaming and up to the
arguments at ignored positions (`ignored_positions`): a position that
every clause of its predicate fills with a variable occurring nowhere
else in the clause.  Such an argument cannot change what a
configuration derives, so the many integer branches of a value that a
label drops right away (`t = rand(); c = t >= 0; drop t`) fall into a
few classes at that label (redundant argument filtering, Leuschel &
Sørensen 1996, applied to the dedup key only).  The key (`_dedup_key`)
is assembled, not printed: each atom caches its shape and variable
names, so a key shows only the atoms a step built anew, and an atom the
step kept as itself brings its cached part.  The enumeration does not
build the branches this dedup would drop: when the stuck variable's only
use outside ignored arguments is a comparison with an int literal,
`calculate` builds one branch per outcome, on the value full branching
builds first (`_branch_classes`, `Merge`).  `step` without a `Merge`,
as the lockstep calls it, still branches once per integer.

A naive bottom-up fixpoint over bounded ground facts doubles as an
independent oracle for the least model on small systems.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import logic as L
from . import syntax as S
from . import values as V
from .logic import Atom, CHCSystem, Clause, SampleSpec, Sort


class Renamer:
    def __init__(self):
        self.n = 0

    def fresh(self, base: str) -> str:
        self.n += 1
        return f"{base}!{self.n}"


class Sorts(Mapping):
    """The sorts of a configuration's variables: its parent's sorts plus
    the ones a step adds, which share the parent's rather than copy them,
    so that building one costs nothing in the parent's size.  Iteration
    follows the insertion order of a dict updated with the parent's sorts
    and then with `new`."""

    __slots__ = ("parent", "new")

    def __init__(self, parent: Mapping[str, Sort], new: dict[str, Sort]):
        self.parent, self.new = parent, new

    def __getitem__(self, x: str) -> Sort:
        m = self
        while type(m) is Sorts:
            s = m.new.get(x)
            if s is not None:
                return s
            m = m.parent
        return m[x]

    def _flat(self) -> dict[str, Sort]:
        layers = []
        m = self
        while type(m) is Sorts:
            layers.append(m.new)
            m = m.parent
        out = dict(m)
        for new in reversed(layers):
            out.update(new)
        return out

    def __iter__(self):
        return iter(self._flat())

    def items(self):
        return self._flat().items()

    def values(self):
        return self._flat().values()

    def __len__(self) -> int:
        return len(self._flat())

    def __repr__(self) -> str:
        return repr(self._flat())


@dataclass(frozen=True)
class ResConfig:
    """A resolutive configuration: the stack, the result pattern and the
    sorts of the variables drawn so far, which each successor a step
    builds shares (`Sorts`)."""

    stack: tuple[Atom, ...]
    result: V.Term
    sorts: Mapping[str, Sort] = field(hash=False, default_factory=dict)

    @property
    def done(self) -> bool:
        return not self.stack


def canon_config(cfg: ResConfig) -> tuple:
    """Show the stack and the result with variables renamed v0, v1, ...
    in first-occurrence order, in one walk; the result is hashable and
    identifies configurations up to renaming."""
    mapping: dict[str, str] = {}

    def rename(x: str) -> str:
        v = mapping.get(x)
        if v is None:
            v = mapping[x] = f"v{len(mapping)}"
        return v

    atoms = tuple((a.pred, tuple(V.show(x, rename) for x in a.args)) for a in cfg.stack)
    return (atoms, V.show(cfg.result, rename))


# ---------------------------------------------------------------------------
# Calculation
# ---------------------------------------------------------------------------


def _find_stuck(t: V.Term) -> Optional[tuple[V.Term, str]]:
    """The innermost redex of a reduced t that a variable operand
    blocks, and that variable's name (the left operand's first); None
    when no variable blocks one."""
    if V.is_pattern(t):
        return None
    for k in V.children(t):
        r = _find_stuck(k)
        if r is not None:
            return r
    if isinstance(t, V.Redex):
        for k in V.children(t):
            if type(k) is V.Var:
                return t, k.name
    return None


class CalculateError(S.CorError):
    pass


def _expand_var(name: str, sorts: Mapping[str, Sort], renamer: Renamer):
    """Constructor skeleton of fresh variables for a variable that blocks
    a redex, decided by its sort alone: box(x!c), mut(x!c, x!p) or
    (x!0, x!1), with the fresh variables' sorts."""
    sort = S.whnf(sorts[name])
    if isinstance(sort, L.BoxS):
        v = renamer.fresh(name + "!c")
        return V.Box(V.Var(v)), {v: sort.inner}
    if isinstance(sort, L.MutS):
        c, p = renamer.fresh(name + "!c"), renamer.fresh(name + "!p")
        return V.MutPair(V.Var(c), V.Var(p)), {c: sort.inner, p: sort.inner}
    if isinstance(sort, S.Prod):
        a, b = renamer.fresh(name + "!0"), renamer.fresh(name + "!1")
        return V.Pair(V.Var(a), V.Var(b)), {a: sort.left, b: sort.right}
    raise CalculateError(f"cannot expand variable {name!r} of sort {S.type_text(sort)}")


def _subst_atoms(atoms: Iterable[Atom], theta: dict[str, V.Term]) -> tuple[Atom, ...]:
    """The atoms through `logic.subst_reduce`; an atom it leaves unchanged is kept as itself."""
    out = []
    for a in atoms:
        args = tuple([L.subst_reduce(x, theta) for x in a.args])
        out.append(a if all(map(operator.is_, args, a.args)) else Atom(a.pred, args))
    return tuple(out)


_COMPARISONS = frozenset({">=", "<=", "<", ">", "==", "!="})


def _uses(t: V.Term, x: V.Var) -> list[V.Term]:
    """Where variable x occurs in t: a comparison `x op c` or `c op x`
    with an int literal c counts as one place, any other occurrence is x
    itself."""
    if V.is_closed(t):
        return []
    if type(t) is V.Var:
        return [t] if t == x else []
    if type(t) is V.BinOpT and t.op in _COMPARISONS and (
            t.left == x and type(t.right) is int or t.right == x and type(t.left) is int):
        return [t]
    return [u for k in V.children(t) for u in _uses(k, x)]


def _branch_classes(
    name: str, body: tuple[Atom, ...], rest: tuple[Atom, ...], result: V.Term,
    ignored: Optional[dict[str, frozenset[int]]], spec: SampleSpec,
) -> list:
    """The class of each integer branch on the stuck variable `name`, in
    the order `calculate` builds them (spec's ints, high to low); the
    value itself when every integer needs its own branch.  With an
    ignored-position map, when `name` occurs in the atoms of body and
    rest, outside their ignored positions, and in the result only once,
    as an operand of a comparison with an int literal, the class is the
    comparison's outcome: two values with one outcome give
    configurations that equal each other up to renaming and ignored
    arguments."""
    values = range(spec.int_hi, spec.int_lo - 1, -1)
    if ignored is None:
        return list(values)
    x = V.Var(name)
    uses = _uses(result, x)
    for a in itertools.chain(body, rest):
        pos = ignored.get(a.pred, ())
        uses += [u for i, arg in enumerate(a.args) if i not in pos for u in _uses(arg, x)]
    if len(uses) != 1 or type(uses[0]) is not V.BinOpT:
        return list(values)
    c = uses[0]
    if type(c.left) is int:
        return [S.eval_op(c.op, c.left, n) for n in values]
    return [S.eval_op(c.op, n, c.right) for n in values]


@dataclass
class Merge:
    """The ignored positions (`ignored_positions`) that let `calculate`
    build one integer branch per class (`_branch_classes`), and the count
    of integer branches it did not build."""
    ignored: dict[str, frozenset[int]]
    merged: int = 0


def _first_stuck(body: tuple[Atom, ...]) -> Optional[tuple[V.Term, str]]:
    for a in body:
        for x in a.args:
            if not V.is_pattern(x):
                stuck = _find_stuck(x)
                if stuck is None:
                    raise CalculateError(f"cannot normalize term {V.show(x)}")
                return stuck
    return None


def calculate(
    body: tuple[Atom, ...], theta: dict[str, V.Term], rest: tuple[Atom, ...],
    result: V.Term, sorts: Mapping[str, Sort], renamer: Renamer, spec: SampleSpec,
    merge: Optional[Merge] = None,
) -> list[ResConfig]:
    """Normalize the pre-resolutive configuration with stack body + rest,
    theta applied to body in the walk that reduces it (`_subst_atoms`),
    until every stack atom argument is a pattern.  May branch on stuck
    arithmetic, one branch per integer, or with `merge` one per class of
    `_branch_classes`: only the first value of a class is built, which is
    the one the dedup of `enumerate_results` would keep, and the renamer
    skips the names each other value of the class would have drawn, so
    the configurations built are those of full branching.  Only `body`
    is normalized: `rest` and `result` must be patterns already, and
    every substitution made here maps variables to patterns, which keeps
    them patterns."""
    out: list[ResConfig] = []
    ignored = merge.ignored if merge else None

    def branch(body, theta, rest, res, srt):
        body = _subst_atoms(body, theta)
        stuck = _first_stuck(body)
        if stuck is None:
            out.append(ResConfig(body + rest, res, srt))
            return
        redex, name = stuck
        if type(redex) is not V.BinOpT:
            skel, fresh_sorts = _expand_var(name, srt, renamer)
            mapping = {name: skel}
            branch(body, mapping, _subst_atoms(rest, mapping),
                   L.subst_reduce(res, mapping), Sorts(srt, fresh_sorts))
            return
        drawn: dict = {}  # per class, the names its first value drew
        classes = _branch_classes(name, body, rest, res, ignored, spec)
        for n, cls in zip(range(spec.int_hi, spec.int_lo - 1, -1), classes):
            if cls in drawn:
                renamer.n += drawn[cls]
                merge.merged += 1
                continue
            start = renamer.n
            mapping = {name: n}
            branch(body, mapping, _subst_atoms(rest, mapping), L.subst_reduce(res, mapping), srt)
            drawn[cls] = renamer.n - start

    branch(body, theta, rest, result, sorts)
    return out


# ---------------------------------------------------------------------------
# Resolution steps
# ---------------------------------------------------------------------------


def step(
    cfg: ResConfig, clauses: Iterable[Clause], renamer: Renamer, spec: SampleSpec,
    merge: Optional[Merge] = None,
) -> list[ResConfig]:
    """All successors of one resolution step of the first stack atom
    against each candidate clause.  Every candidate's binders get fresh
    names, in binder order, whether or not its head unifies.  The renamed
    head is unified with the goal, head first, so the clause's variables
    are bound to the goal's terms; a configuration variable is bound only
    where it meets a head constructor.  A head of distinct variables
    (`Clause.var_head`) binds each to the goal's argument without
    unification.  The rest of the stack and the result take only the
    bindings of configuration variables, and are kept as themselves when
    there are none.  cfg's stack and result must be patterns, as must
    every clause head: the unifier then maps variables to patterns, and
    `calculate` need only normalize the clause body.  Without `merge`,
    stuck arithmetic branches once per integer."""
    if not cfg.stack:
        return []
    first, rest = cfg.stack[0], cfg.stack[1:]
    out: list[ResConfig] = []
    for clause in clauses:
        fresh = {x: V.Var(renamer.fresh(x)) for x, _ in clause.binders}
        new_rest, result = rest, cfg.result
        if clause.var_head is not None:
            theta = fresh | dict(zip(clause.var_head, first.args))
        else:
            mgu = L.unify(tuple(L.subst_reduce(x, fresh) for x in clause.head.args), first.args)
            if mgu is None:
                continue
            theta = {x: mgu.get(v.name, v) for x, v in fresh.items()}
            names = {v.name for v in fresh.values()}
            own = {v: t for v, t in mgu.items() if v not in names}
            if own:
                new_rest, result = _subst_atoms(rest, own), L.subst_reduce(result, own)
        sorts = Sorts(cfg.sorts, {fresh[x].name: s for x, s in clause.binders})
        out.extend(calculate(clause.body, theta, new_rest, result, sorts, renamer, spec, merge))
    return out


def _lone_head_vars(c: Clause) -> set[int]:
    """The positions of c's head that hold a variable occurring nowhere
    else in c."""
    uses: Counter = Counter()
    for atom in (c.head, *c.body):
        for a in atom.args:
            if type(a) is V.Var:
                uses[a.name] += 1
            elif not V.is_closed(a):
                uses.update(V.vars_in(a))
    return {i for i, a in enumerate(c.head.args) if type(a) is V.Var and uses[a.name] == 1}


def ignored_positions(index: dict[str, list[Clause]]) -> dict[str, frozenset[int]]:
    """For each predicate of the clause index (`CHCSystem.by_pred`), the
    argument positions where every one of its clauses has a variable
    occurring nowhere else in that clause; predicates with none, and
    predicates with no clauses, are left out.  Unifying such a position
    binds only that clause variable, so two configurations equal up to
    renaming apart from these arguments have the same successors and
    results up to renaming."""
    out: dict[str, frozenset[int]] = {}
    for pred, clauses in index.items():
        if clauses:
            ignored = set.intersection(*map(_lone_head_vars, clauses))
            if ignored:
                out[pred] = frozenset(ignored)
    return out


_IGNORED = V.UNIT  # what every ignored argument shows as in a dedup key


def _atom_key(a: Atom, pos: Optional[frozenset[int]]) -> tuple[str, tuple[str, ...]]:
    """a's shape: a shown with its own variables renamed v0, v1, ... in
    first-occurrence order and `_IGNORED` at the positions in pos; and
    the names of those variables in that order.  Cached on a, keyed by
    the identity of pos."""
    cached = a._key
    if cached is not None and cached[0] is pos:
        return cached[1], cached[2]
    local: dict[str, str] = {}

    def rename(x: str) -> str:
        v = local.get(x)
        if v is None:
            v = local[x] = f"v{len(local)}"
        return v

    args = [V.show(_IGNORED if pos and i in pos else x, rename) for i, x in enumerate(a.args)]
    shape, names = f"{a.pred}({', '.join(args)})", tuple(local)
    a.__dict__["_key"] = (pos, shape, names)
    return shape, names


def _dedup_key(cfg: ResConfig, ignored: dict[str, frozenset[int]]) -> tuple:
    """A key that two configurations share exactly when `canon_config`
    shows them alike once every argument at an ignored position is
    replaced by `_IGNORED`.  It is built from each atom's cached shape and
    variable names (`_atom_key`), not printed: the shapes, the number of
    each atom variable in first-occurrence order over the stack, and the
    result shown with those numbers."""
    nums: dict[str, int] = {}
    shapes, order = [], []
    for a in cfg.stack:
        shape, names = _atom_key(a, ignored.get(a.pred))
        shapes.append(shape)
        order += [nums.setdefault(x, len(nums)) for x in names]

    def rename(x: str) -> str:
        n = nums.get(x)
        if n is None:
            n = nums[x] = len(nums)
        return f"v{n}"

    return tuple(shapes), tuple(order), V.show(cfg.result, rename)


@dataclass
class EnumOutcome:
    patterns: list[tuple[V.Term, dict[str, Sort]]]
    budget_exceeded: bool
    steps: int = 0
    dedup_hits: int = 0  # successors dropped as already seen
    merged: int = 0  # integer branches not built (`Merge`)


def enumerate_results(
    sys: CHCSystem,
    pred: str,
    inputs: tuple[V.Value, ...],
    depth: int = 64,
    width: int = 4000,
    spec: Optional[SampleSpec] = None,
) -> EnumOutcome:
    """All result patterns derivable for pred(inputs..., r) within the
    depth/width budget.  The inputs are in predicate order (for a label
    predicate, `translate.label_atom`'s), not parameter order.
    Deduplicates configurations up to variable renaming and up to the
    arguments at `ignored_positions`, and builds one stuck-arithmetic
    branch per class that this dedup would merge (`_branch_classes`);
    `steps` counts every successor, `dedup_hits` those dropped as
    already seen and `merged` the integer branches not built."""
    spec = spec or SampleSpec()
    if pred not in sys.sigs:
        raise L.IllSorted(f"unknown predicate {pred}")
    sig = sys.sigs[pred]
    if len(inputs) + 1 != len(sig):
        raise L.IllSorted(f"{pred} expects {len(sig) - 1} inputs")
    for v, s in zip(inputs, sig):
        if not L.check_value(v, s):
            raise L.IllSorted(f"input {V.show(v)} does not have sort {S.type_text(s)}")
    renamer = Renamer()
    index = sys.by_pred()
    merge = Merge(ignored_positions(index))
    r = renamer.fresh("r")
    init = ResConfig((Atom(pred, tuple(inputs) + (V.Var(r),)),), V.Var(r), {r: sig[-1]})
    seen = {_dedup_key(init, merge.ignored)}
    frontier = [init]
    results: dict[tuple, tuple[V.Term, dict[str, Sort]]] = {}
    flag = False
    steps = hits = 0
    for _ in range(depth):
        if not frontier:
            break
        new: list[ResConfig] = []
        for cfg in frontier:
            for nxt in step(cfg, index.get(cfg.stack[0].pred, ()), renamer, spec, merge):
                steps += 1
                key = _dedup_key(nxt, merge.ignored)
                if key in seen:
                    hits += 1
                    continue  # it derives what the one seen derives, up to renaming
                seen.add(key)
                if nxt.done:
                    results[key] = (nxt.result, nxt.sorts)
                else:
                    new.append(nxt)
        if len(new) > width:
            flag = True
            new = new[:width]
        frontier = new
    if frontier:
        flag = True
    return EnumOutcome(list(results.values()), flag, steps, hits, merge.merged)


def covers_value(outcome: EnumOutcome, w: V.Value) -> bool:
    return any(L.refines_to(p, w) for p, _ in outcome.patterns)


# ---------------------------------------------------------------------------
# Bottom-up fixpoint oracle
# ---------------------------------------------------------------------------


class OracleBudget(S.CorError):
    pass


def _solve_arg(term, value, delta, binding, pending, checks):
    """Match a body-atom argument term against a ground fact value,
    extending `binding`.  Component constraints on mut/pair variables go
    to `pending`; non-invertible subterms go to `checks`."""
    if isinstance(term, V.Var):
        if term.name in binding:
            return binding[term.name] == value
        binding[term.name] = value
        return True
    if isinstance(term, (int, V.UnitVal)):
        return term == value
    if isinstance(term, (V.Inj, V.Box, V.MutPair, V.Pair)):
        if type(value) is not type(term) or (isinstance(term, V.Inj) and term.tag != value.tag):
            return False
        return all(_solve_arg(a, b, delta, binding, pending, checks)
                   for a, b in zip(V.children(term), V.children(value)))
    if isinstance(term, V.DerefT):
        inner = S.whnf(L.sort_of_term(delta, term.arg))
        if isinstance(inner, L.BoxS):
            return _solve_arg(term.arg, V.Box(value), delta, binding, pending, checks)
        if isinstance(inner, L.MutS) and isinstance(term.arg, V.Var):
            slot = pending.setdefault(term.arg.name, {})
            if "cur" in slot and slot["cur"] != value:
                return False
            slot["cur"] = value
            return True
        checks.append((term, value))
        return True
    if isinstance(term, V.FinalT):
        if isinstance(term.arg, V.Var):
            slot = pending.setdefault(term.arg.name, {})
            if "fin" in slot and slot["fin"] != value:
                return False
            slot["fin"] = value
            return True
        checks.append((term, value))
        return True
    if isinstance(term, V.ProjT):
        if isinstance(term.arg, V.Var):
            slot = pending.setdefault(term.arg.name, {})
            key = ("proj", term.index)
            if key in slot and slot[key] != value:
                return False
            slot[key] = value
            return True
        checks.append((term, value))
        return True
    if isinstance(term, V.BinOpT):
        checks.append((term, value))
        return True
    raise L.Undefined(f"cannot match term {V.show(term)}")


def _merge_pending(delta, binding, pending, spec):
    """Resolve component constraints: fully determined variables get
    bound; partially determined ones contribute bounded enumerations."""
    options: list[tuple[str, list]] = []
    for name, slot in pending.items():
        sort = S.whnf(delta[name])
        if name in binding:
            val = binding[name]
            for key, want in slot.items():
                if key == "cur" and (not isinstance(val, V.MutPair) or val.cur != want):
                    return None
                if key == "fin" and (not isinstance(val, V.MutPair) or val.fin != want):
                    return None
                if isinstance(key, tuple) and key[0] == "proj":
                    got = val.fst if key[1] == 0 else val.snd
                    if not isinstance(val, V.Pair) or got != want:
                        return None
            continue
        if isinstance(sort, L.MutS):
            cur, fin = slot.get("cur"), slot.get("fin")
            if cur is not None and fin is not None:
                binding[name] = V.MutPair(cur, fin)
            else:
                dom = L.enumerate_values(sort.inner, spec)
                if cur is not None:
                    options.append((name, [V.MutPair(cur, o) for o in dom]))
                else:
                    options.append((name, [V.MutPair(o, fin) for o in dom]))
        elif isinstance(sort, S.Prod):
            a, b = slot.get(("proj", 0)), slot.get(("proj", 1))
            if a is not None and b is not None:
                binding[name] = V.Pair(a, b)
            elif a is not None:
                options.append((name, [V.Pair(a, o) for o in L.enumerate_values(sort.right, spec)]))
            else:
                options.append((name, [V.Pair(o, b) for o in L.enumerate_values(sort.left, spec)]))
        else:
            return None
    return options


def _body_valuations(clause, facts, spec, enum_cap):
    delta = dict(clause.binders)
    states = [({}, {}, [])]  # (binding, pending, checks)
    for atom in clause.body:
        new_states = []
        for binding, pending, checks in states:
            for fact in facts.get(atom.pred, ()):
                b2 = dict(binding)
                p2 = {k: dict(v) for k, v in pending.items()}
                c2 = list(checks)
                ok = True
                for term, value in zip(atom.args, fact):
                    if not _solve_arg(term, value, delta, b2, p2, c2):
                        ok = False
                        break
                if ok:
                    new_states.append((b2, p2, c2))
        states = new_states
        if not states:
            return
    head_vars = set()
    if clause.head is not None:
        for a in clause.head.args:
            head_vars |= V.vars_in(a)
    for binding, pending, checks in states:
        options = _merge_pending(delta, binding, pending, spec)
        if options is None:
            continue
        check_vars = set()
        for term, _ in checks:
            check_vars |= V.vars_in(term)
        needed = (head_vars | check_vars) - set(binding) - {n for n, _ in options}
        for name in sorted(needed):
            options.append((name, L.enumerate_values(delta[name], spec)))
        total = 1
        for _, dom in options:
            total *= max(len(dom), 1)
            if total > enum_cap:
                raise OracleBudget(
                    f"clause {clause.tag}: enumeration of {total}+ completions exceeds cap"
                )
        names = [n for n, _ in options]
        for combo in itertools.product(*[dom for _, dom in options]):
            full = dict(binding)
            full.update(zip(names, combo))
            if all(L.interpret_term(full, t) == v for t, v in checks):
                yield full


def bottom_up_facts(
    sys: CHCSystem,
    spec: Optional[SampleSpec] = None,
    enum_cap: int = 200_000,
    fact_cap: int = 2_000_000,
) -> dict[str, set[tuple]]:
    """Naive least-fixpoint of the clause system over bounded ground
    facts.  Exists solely as a test oracle; raises OracleBudget when the
    bounds cannot be respected."""
    spec = spec or SampleSpec()
    facts: dict[str, set[tuple]] = {p: set() for p in sys.sigs}
    rules = [c for c in sys.clauses if c.head is not None]
    changed = True
    while changed:
        changed = False
        for clause in rules:
            new = []
            for valuation in _body_valuations(clause, facts, spec, enum_cap):
                fact = tuple(L.interpret_term(valuation, a) for a in clause.head.args)
                if fact not in facts[clause.head.pred]:
                    new.append(fact)
            if new:
                facts[clause.head.pred].update(new)
                changed = True
                if sum(len(s) for s in facts.values()) > fact_cap:
                    raise OracleBudget("fact cap exceeded")
    return facts
