"""Multi-sorted constrained-Horn-clause logic.

A sort is a type whose pointers are box or mut: `BoxS` and `MutS` are
the only nodes this module defines, and the sums, products, int, unit,
type variables and equi-recursive mu-sorts are `syntax`'s own type
nodes, so substitution, unfolding and canonical renaming are its walks,
`syntax.type_text` prints a sort, and `sort_equiv` is the type
checker's equi-recursive `typeck.subtype`.
A clause has pattern arguments in its head and arbitrary term arguments
in body atoms; there are no primitive constraints, arithmetic lives
inside terms.  A clause with head None is a query (an implication to
false).

The module covers the static side (sort checking of terms and systems),
the semantic side (term interpretation, the values of a sort, model
checking) and syntactic unification of pattern tuples, which the
resolution engine builds on.  `valuations` alone chooses between every
combination of values and random draws: the oracle command takes its
inputs from it, and the model check its clause valuations.

The term forms *t, ^t, t.i and the operators get their meaning from one
redex rule, `reduce`, and `apply_op` alone turns an operator's result
into an int or V.TRUE/V.FALSE.  Every term evaluator is a walk plus that
rule: `interpret_term` here, `subst_reduce` (substitution and reduction
in one walk) for the resolution engine, and the prophecy interpreter's
binop rule.  The rule lives here rather than in `values`, which imports
no other module of the package.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterator, Optional, Union

from . import syntax as S
from . import typeck
from . import values as V


# ---------------------------------------------------------------------------
# Sorts
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BoxS(S.Interned):
    inner: "Sort"
    keyword: ClassVar[str] = "box"


@dataclass(frozen=True, eq=False)
class MutS(S.Interned):
    inner: "Sort"
    keyword: ClassVar[str] = "mut"


INT_S = S.INT
UNIT_S = S.UNIT
BOOL_S = S.BOOL

Sort = Union[BoxS, MutS, S.Sum, S.Prod, S.IntT, S.UnitT, S.TypeVar, S.Mu]


class IllSorted(S.CorError):
    pass


_NO_LIFETIMES = typeck.LftCtx.empty()


def sort_equiv(a: Sort, b: Sort) -> bool:
    """Equality up to unfolding mu-sorts (the congruence generated by
    mu X.s ~ s[mu X.s/X]): `typeck.subtype`, whose rules on a sort, which
    has no Cor pointer, are all covariant and so symmetric."""
    return typeck.subtype(_NO_LIFETIMES, a, b)


# ---------------------------------------------------------------------------
# Sort checking of terms
# ---------------------------------------------------------------------------


def check_term(delta: dict[str, Sort], t: V.Term, expect: Sort) -> None:
    """Check t against the expected sort (raises IllSorted)."""
    got = sort_of_term(delta, t, expect)
    if not sort_equiv(got, expect):
        raise IllSorted(f"term {V.show(t)} has sort {S.type_text(got)}, expected {S.type_text(expect)}")


def sort_of_term(delta: dict[str, Sort], t: V.Term, expect: Optional[Sort] = None) -> Sort:
    """Sort of a term under a variable sort context.

    Injections cannot be inferred alone (the other summand is free), so
    they are only accepted when an expected sort is supplied.
    """
    if isinstance(t, bool):
        raise IllSorted("Python bool leaked into a term")
    if isinstance(t, int):
        return INT_S
    if isinstance(t, V.UnitVal):
        return UNIT_S
    if isinstance(t, V.Var):
        if t.name not in delta:
            raise IllSorted(f"unbound variable {t.name!r}")
        return delta[t.name]
    if isinstance(t, V.Box):
        e = S.whnf(expect) if expect is not None else None
        inner = e.inner if isinstance(e, BoxS) else None
        return BoxS(sort_of_term(delta, t.inner, inner))
    if isinstance(t, V.MutPair):
        e = S.whnf(expect) if expect is not None else None
        inner = e.inner if isinstance(e, MutS) else None
        cur = sort_of_term(delta, t.cur, inner)
        fin = sort_of_term(delta, t.fin, inner)
        if not sort_equiv(cur, fin):
            raise IllSorted(f"mut components disagree: {S.type_text(cur)} vs {S.type_text(fin)}")
        return MutS(cur)
    if isinstance(t, V.Inj):
        e = S.whnf(expect) if expect is not None else None
        if not isinstance(e, S.Sum):
            raise IllSorted(f"cannot determine sum sort of {V.show(t)}")
        side = e.left if t.tag == 0 else e.right
        check_term(delta, t.payload, side)
        return e
    if isinstance(t, V.Pair):
        e = S.whnf(expect) if expect is not None else None
        l = sort_of_term(delta, t.fst, e.left if isinstance(e, S.Prod) else None)
        r = sort_of_term(delta, t.snd, e.right if isinstance(e, S.Prod) else None)
        return S.Prod(l, r)
    if isinstance(t, V.DerefT):
        inner = S.whnf(sort_of_term(delta, t.arg))
        if isinstance(inner, (BoxS, MutS)):
            return inner.inner
        raise IllSorted(f"*applied to sort {S.type_text(inner)}")
    if isinstance(t, V.FinalT):
        inner = S.whnf(sort_of_term(delta, t.arg))
        if isinstance(inner, MutS):
            return inner.inner
        raise IllSorted(f"^ applied to sort {S.type_text(inner)}")
    if isinstance(t, V.ProjT):
        inner = S.whnf(sort_of_term(delta, t.arg))
        if isinstance(inner, S.Prod):
            return inner.left if t.index == 0 else inner.right
        raise IllSorted(f"projection applied to sort {S.type_text(inner)}")
    if isinstance(t, V.BinOpT):
        check_term(delta, t.left, INT_S)
        check_term(delta, t.right, INT_S)
        return INT_S if t.op in S.INT_OPS else BOOL_S
    if isinstance(t, V.AbsVar):
        raise IllSorted("abstract variable in a logical term")
    raise IllSorted(f"not a term: {t!r}")


def check_value(v: V.Value, s: Sort) -> bool:
    s = S.whnf(s)
    if isinstance(s, S.IntT):
        return isinstance(v, int) and not isinstance(v, bool)
    if isinstance(s, S.UnitT):
        return isinstance(v, V.UnitVal)
    if isinstance(s, BoxS):
        return isinstance(v, V.Box) and check_value(v.inner, s.inner)
    if isinstance(s, MutS):
        return isinstance(v, V.MutPair) and check_value(v.cur, s.inner) and check_value(v.fin, s.inner)
    if isinstance(s, S.Sum):
        return isinstance(v, V.Inj) and check_value(v.payload, s.left if v.tag == 0 else s.right)
    if isinstance(s, S.Prod):
        return isinstance(v, V.Pair) and check_value(v.fst, s.left) and check_value(v.snd, s.right)
    return False


# ---------------------------------------------------------------------------
# Clauses and systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[V.Term, ...]

    # `sldc._dedup_key`'s part for this atom, cached in the instance
    # __dict__ and, like the facts `values` caches on a term, left out of
    # equality, hashing, repr, copies and pickles
    _key = None
    __getstate__ = V._Node.__getstate__


@dataclass(frozen=True)
class Clause:
    binders: tuple[tuple[str, Sort], ...]
    head: Optional[Atom]  # None encodes an implication to false (a query)
    body: tuple[Atom, ...]
    tag: tuple = ()  # provenance, keeps output ordering stable

    def free_vars(self) -> set[str]:
        out: set[str] = set()
        for atom in (() if self.head is None else (self.head,)) + self.body:
            for a in atom.args:
                out |= V.vars_in(a)
        return out

    @functools.cached_property
    def var_head(self) -> Optional[tuple[str, ...]]:
        """The names of the head's arguments when every one is a variable
        and no two are the same, else None.  Such a head unifies with any
        goal of its arity, binding each of its variables to the goal's
        argument at its place (the WAM's `get_variable`, Warren 1983)."""
        if self.head is None:
            return None
        names = tuple(a.name for a in self.head.args if type(a) is V.Var)
        return names if len(set(names)) == len(self.head.args) else None


@dataclass
class CHCSystem:
    clauses: list[Clause]
    sigs: dict[str, tuple[Sort, ...]]

    def by_pred(self) -> dict[str, list[Clause]]:
        index: dict[str, list[Clause]] = {p: [] for p in self.sigs}
        for c in self.clauses:
            if c.head is not None:
                index.setdefault(c.head.pred, []).append(c)
        return index


def pred_name(fn: str, label: str) -> str:
    # '!' cannot occur in user identifiers, so this rendering is injective
    return f"{fn}!{label}"


def well_sorted_clause(sigs: dict[str, tuple[Sort, ...]], clause: Clause) -> None:
    delta = dict(clause.binders)
    if len(delta) != len(clause.binders):
        raise IllSorted(f"clause {clause.tag}: duplicate binders")
    missing = clause.free_vars() - set(delta)
    if missing:
        raise IllSorted(f"clause {clause.tag}: unbound variables {sorted(missing)}")
    atoms = clause.body if clause.head is None else (clause.head,) + clause.body
    for atom in atoms:
        if atom.pred not in sigs:
            raise IllSorted(f"clause {clause.tag}: unknown predicate {atom.pred}")
        sig = sigs[atom.pred]
        if len(atom.args) != len(sig):
            raise IllSorted(
                f"clause {clause.tag}: {atom.pred} applied to {len(atom.args)} args, wants {len(sig)}"
            )
        for arg, sort in zip(atom.args, sig):
            check_term(delta, arg, sort)
    if clause.head is not None:
        for arg in clause.head.args:
            if not V.is_pattern(arg):
                raise IllSorted(f"clause {clause.tag}: head argument {V.show(arg)} is not a pattern")


def well_sorted_system(sys: CHCSystem) -> None:
    for clause in sys.clauses:
        well_sorted_clause(sys.sigs, clause)


# ---------------------------------------------------------------------------
# Interpretation and model checking
# ---------------------------------------------------------------------------


class Undefined(S.CorError):
    pass


def apply_op(op: str, a: int, b: int) -> V.Value:
    """The value of `a op b`: an int for arithmetic, V.TRUE or V.FALSE
    for a comparison."""
    res = S.eval_op(op, a, b)
    if type(res) is bool:
        return V.TRUE if res else V.FALSE
    return res


def reduce(t: V.Term) -> V.Term:
    """The one-step rule for a redex at the root of t: *box(v) -> v,
    *mut(c, p) -> c, ^mut(c, p) -> p, (a, b).i -> its i-th component,
    int op int -> `apply_op`.  t itself when none applies: a constructor,
    or a redex stuck on a variable or on the wrong constructor."""
    typ = type(t)
    if typ is V.DerefT:
        arg = t.arg
        if type(arg) is V.Box:
            return arg.inner
        if type(arg) is V.MutPair:
            return arg.cur
    elif typ is V.FinalT:
        if type(t.arg) is V.MutPair:
            return t.arg.fin
    elif typ is V.ProjT:
        if type(t.arg) is V.Pair:
            return t.arg.fst if t.index == 0 else t.arg.snd
    elif typ is V.BinOpT and type(t.left) is int and type(t.right) is int:
        return apply_op(t.op, t.left, t.right)
    return t


def subst_reduce(t: V.Term, theta: dict[str, V.Term]) -> V.Term:
    """t with the variables bound in theta replaced by their terms, which
    should be patterns, and `reduce` applied to each node as it is
    rebuilt, innermost first.  t itself when neither changes it; only a
    value (a closed pattern) is returned without a walk."""
    if type(t) is V.Var:
        return theta.get(t.name, t)
    if V.is_pattern(t) and V.is_closed(t):
        return t
    return reduce(V.map_children(t, lambda k: subst_reduce(k, theta)))


def interpret_term(valuation: dict[str, V.Value], t: V.Term) -> V.Value:
    """The value of t under the valuation: each variable looked up, then
    `reduce` applied to every redex, innermost first.  Raises Undefined
    on an unbound variable, an abstract variable, a Python bool and a
    redex that stays stuck."""
    typ = type(t)
    if typ is V.Var:
        if t.name not in valuation:
            raise Undefined(f"unbound variable {t.name!r}")
        return valuation[t.name]
    if typ is int or typ is V.UnitVal:
        return t
    if typ is bool or typ is V.AbsVar:
        raise Undefined(f"not a logical term: {t!r}")
    v = V.map_children(t, lambda k: interpret_term(valuation, k))
    if isinstance(v, V.Redex):
        v = reduce(v)
        if isinstance(v, V.Redex):
            raise Undefined(f"no rule reduces {V.show(v)}")
    return v


PredCheck = Callable[[tuple], bool]


@dataclass
class SampleSpec:
    """Bounds for enumerating/sampling the value domain of a sort."""

    int_lo: int = -8
    int_hi: int = 8
    max_depth: int = 4  # constructor depth cap for recursive sorts


@functools.lru_cache(maxsize=None)
def _void(s: Sort) -> bool:
    """Whether s has no finite value, each free variable taken as empty:
    the least fixpoint of mu X. b is empty just when b is, X empty."""
    parts = map(_void, S.children(s))
    return isinstance(s, S.TypeVar) or (all if isinstance(s, S.Sum) else any)(parts)


@functools.lru_cache(maxsize=None)
def _check_finite(sort: Sort) -> None:
    """Raise Undefined unless every sort reached from this one by
    unfolding and taking parts has a finite value: the walks below cut
    recursion only at sums, and would not end on one that has none."""
    parts = [sort]
    for s in parts:  # grows as it is walked
        s = S.whnf(s)
        if _void(s):
            raise Undefined(f"sort {S.type_text(s)} has no finite value")
        parts += [p for p in S.children(s) if p not in parts]


def _values(sort: Sort, spec: SampleSpec, depth: int) -> Iterator[V.Value]:
    """The values of `enumerate_values`, lazily and in its order: the
    first value of a mut or pair costs the values of its two parts."""
    s = S.whnf(sort)
    if isinstance(s, S.IntT):
        yield from range(spec.int_lo, spec.int_hi + 1)
    elif isinstance(s, S.UnitT):
        yield V.UNIT
    elif isinstance(s, BoxS):
        yield from map(V.Box, _values(s.inner, spec, depth))
    elif isinstance(s, MutS):
        inner = _values(s.inner, spec, depth)
        yield from itertools.starmap(V.MutPair, itertools.product(inner, repeat=2))
    elif isinstance(s, S.Prod):
        pairs = itertools.product(_values(s.left, spec, depth), _values(s.right, spec, depth))
        yield from itertools.starmap(V.Pair, pairs)
    elif not isinstance(s, S.Sum):
        raise Undefined(f"cannot enumerate sort {S.type_text(sort)}")
    elif depth > 0:
        yield from (V.Inj(0, v) for v in _values(s.left, spec, depth - 1))
        yield from (V.Inj(1, v) for v in _values(s.right, spec, depth - 1))


def enumerate_values(sort: Sort, spec: SampleSpec) -> list[V.Value]:
    """All values of the sort within the bounds: ints in the interval,
    recursion cut at max_depth sums along each path, left parts major."""
    _check_finite(sort)
    return list(_values(sort, spec, spec.max_depth))


def count_values(sort: Sort, spec: SampleSpec, depth: Optional[int] = None) -> int:
    if depth is None:
        _check_finite(sort)
        depth = spec.max_depth
    s = S.whnf(sort)
    if isinstance(s, S.IntT):
        return spec.int_hi - spec.int_lo + 1
    if isinstance(s, S.UnitT):
        return 1
    if isinstance(s, BoxS):
        return count_values(s.inner, spec, depth)
    if isinstance(s, MutS):
        return count_values(s.inner, spec, depth) ** 2
    if isinstance(s, S.Prod):
        return count_values(s.left, spec, depth) * count_values(s.right, spec, depth)
    if isinstance(s, S.Sum):
        if depth <= 0:
            return 0
        return count_values(s.left, spec, depth - 1) + count_values(s.right, spec, depth - 1)
    raise Undefined(f"cannot count sort {S.type_text(sort)}")


def random_value(sort: Sort, spec: SampleSpec, rng: random.Random, depth: Optional[int] = None) -> V.Value:
    if depth is None:
        _check_finite(sort)
        depth = spec.max_depth
    s = S.whnf(sort)
    # dispatch on the exact class: the model check's draws spend most of
    # their time here, and tests/test_logic.py checks that no sort class
    # has a subclass
    typ = type(s)
    if typ is S.IntT:
        return rng.randint(spec.int_lo, spec.int_hi)
    if typ is S.UnitT:
        return V.UNIT
    if typ is BoxS:
        return V.Box(random_value(s.inner, spec, rng, depth))
    if typ is MutS:
        return V.MutPair(random_value(s.inner, spec, rng, depth),
                         random_value(s.inner, spec, rng, depth))
    if typ is S.Prod:
        return V.Pair(random_value(s.left, spec, rng, depth),
                      random_value(s.right, spec, rng, depth))
    if typ is S.Sum:
        # prefer the cheaper side when the depth budget runs out
        sides = [(0, s.left), (1, s.right)]
        if depth <= 0:
            finite = [p for p in sides if count_values(p[1], spec, 0) > 0]
            sides = finite or sides
        tag, side = rng.choice(sides)
        return V.Inj(tag, random_value(side, spec, rng, max(depth - 1, 0)))
    raise Undefined(f"cannot sample sort {S.type_text(sort)}")


def valuations(sorts: list[Sort], spec: SampleSpec, rng: random.Random,
               limit: int, samples: int) -> Iterator[tuple[V.Value, ...]]:
    """Tuples of values of the sorts, in their order: every combination
    of their `enumerate_values` when there are from 1 to `limit`, else
    `samples` tuples of `random_value` draws, each drawn left to right.
    A sort with no value within the depth cap is drawn past it."""
    for s in sorts:
        _check_finite(s)
    depth = spec.max_depth
    if 0 < math.prod(count_values(s, spec, depth) for s in sorts) <= limit:
        yield from itertools.product(*(enumerate_values(s, spec) for s in sorts))
    else:
        for _ in range(samples):
            yield tuple([random_value(s, spec, rng, depth) for s in sorts])


def default_value(sort: Sort, spec: Optional[SampleSpec] = None) -> V.Value:
    """A canonical inhabitant: the first value `enumerate_values` gives
    with ints 0..0, at the least depth from the spec's cap up that has one."""
    spec = spec or SampleSpec()
    _check_finite(sort)
    for depth in range(spec.max_depth, spec.max_depth + 8):
        for v in _values(sort, SampleSpec(0, 0, depth), depth):
            return v
    raise Undefined(f"no inhabitant found for {S.type_text(sort)}")


@dataclass
class Verdict:
    violated: bool
    clause: Optional[Clause] = None
    valuation: Optional[dict[str, V.Value]] = None
    checked: int = 0


def _clause_holds(model: dict[str, PredCheck], clause: Clause, valuation: dict[str, V.Value]) -> bool:
    for atom in clause.body:
        args = tuple(interpret_term(valuation, a) for a in atom.args)
        if not model[atom.pred](args):
            return True  # body false: clause vacuously holds
    if clause.head is None:
        return False  # body holds, head is false
    args = tuple(interpret_term(valuation, a) for a in clause.head.args)
    return model[clause.head.pred](args)


EXHAUSTIVE_LIMIT = 10 ** 6  # the most valuations of a clause the model check enumerates


def check_model_sampled(
    sys: CHCSystem,
    model: dict[str, PredCheck],
    spec: Optional[SampleSpec] = None,
    budget: int = 10 ** 5,
    seed: int = 0,
) -> Verdict:
    """Check every clause under the predicate structure, which maps each
    predicate to a test on argument tuples.

    Per clause: the `valuations` of its binders, exhaustive up to
    EXHAUSTIVE_LIMIT, otherwise `budget` random samples.  A returned
    violation is a genuine countermodel witness; no violation found is
    a semi-decision within the bounds.
    """
    spec = spec or SampleSpec()
    rng = random.Random(seed)
    checked = 0
    for clause in sys.clauses:
        names = [name for name, _ in clause.binders]
        sorts = [sort for _, sort in clause.binders]
        for combo in valuations(sorts, spec, rng, EXHAUSTIVE_LIMIT, budget):
            valuation = dict(zip(names, combo))
            checked += 1
            if not _clause_holds(model, clause, valuation):
                return Verdict(True, clause, valuation, checked)
    return Verdict(False, checked=checked)


# ---------------------------------------------------------------------------
# Unification of pattern tuples
# ---------------------------------------------------------------------------


def _walk(t: V.Term, subst: dict[str, V.Term]) -> V.Term:
    while isinstance(t, V.Var) and t.name in subst:
        t = subst[t.name]
    return t


def _occurs(name: str, t: V.Term, subst: dict[str, V.Term]) -> bool:
    t = _walk(t, subst)
    if isinstance(t, V.Var):
        return t.name == name
    return not V.is_closed(t) and any(_occurs(name, k, subst) for k in V.children(t))


def _unify(a: V.Term, b: V.Term, subst: dict[str, V.Term]) -> bool:
    a = _walk(a, subst)
    b = _walk(b, subst)
    if isinstance(a, V.Var):
        if isinstance(b, V.Var) and b.name == a.name:
            return True
        if _occurs(a.name, b, subst):
            return False
        subst[a.name] = b
        return True
    if isinstance(b, V.Var):
        return _unify(b, a, subst)
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, V.UnitVal) and isinstance(b, V.UnitVal):
        return True
    if type(a) is type(b):
        if isinstance(a, V.Inj) and a.tag != b.tag:
            return False
        ka, kb = V.children(a), V.children(b)
        return len(ka) == len(kb) and all(_unify(x, y, subst) for x, y in zip(ka, kb))
    return False


def resolve(t: V.Term, subst: dict[str, V.Term]) -> V.Term:
    """t with its bound variables replaced, through to the end of each
    binding chain; t itself when none occurs in it."""
    t = _walk(t, subst)
    return t if V.is_closed(t) else V.map_children(t, lambda k: resolve(k, subst))


def unify(ps: tuple[V.Term, ...], qs: tuple[V.Term, ...]) -> Optional[dict[str, V.Term]]:
    """Most general unifier of two pattern tuples whose variables are
    disjoint (the caller renames one side apart), or None.  The unifier
    is idempotent: no bound variable occurs in any value, so one
    substitution pass makes ps[i] and qs[i] equal.  Repeated variables
    (non-linear patterns) are supported."""
    if len(ps) != len(qs):
        return None
    subst: dict[str, V.Term] = {}
    for p, q in zip(ps, qs):
        if not _unify(p, q, subst):
            return None
    return {v: resolve(t, subst) for v, t in subst.items()}


# ---------------------------------------------------------------------------
# Pattern refinement
# ---------------------------------------------------------------------------


def match_into(p: V.Term, w: V.Term, binding: dict[str, V.Term]) -> bool:
    """Can pattern p be instantiated to w by extending `binding`?
    Repeated pattern variables must take equal values.  A p that is w
    itself matches by binding each of its variables to itself, without
    walking it."""
    if p is w:
        for x in V.var_leaves(p):
            b = binding.setdefault(x.name, x)
            if b is not x and b != x:
                return False
        return True
    if isinstance(p, V.Var):
        if p.name in binding:
            return binding[p.name] == w
        binding[p.name] = w
        return True
    if isinstance(p, (int, V.UnitVal)):
        return p == w
    if type(p) is not type(w):
        return False
    if isinstance(p, V.Inj) and p.tag != w.tag:
        return False
    return all(match_into(a, b, binding) for a, b in zip(V.children(p), V.children(w)))


def refines_to(p: V.Term, w: V.Value) -> bool:
    """Can pattern p be instantiated to the value w?"""
    return match_into(p, w, {})


def refine_default(p: V.Term, delta: dict[str, Sort], spec: Optional[SampleSpec] = None) -> V.Value:
    """Instantiate the don't-care variables of a result pattern with
    default values of their sorts."""
    spec = spec or SampleSpec()
    return subst_reduce(p, {x: default_value(delta[x], spec) for x in V.vars_in(p)})
