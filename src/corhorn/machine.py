"""Machine plumbing shared by the heap interpreter (`cos`) and the
prophecy interpreter (`aos`).

The two semantics differ only in their configurations and rules.  Both
step a configuration to `Next`, `Final` or `Stuck`, enter through the
same simple-function checks and run under the same fuel/trace loop,
`drive`, which leaves the final readout to the interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Union

from . import logic as L
from . import syntax as S
from . import values as V
from .translate import sort_of_type


class RunError(S.CorError):
    def __init__(self, code: str, msg: str):
        super().__init__(f"[{code}] {msg}")
        self.code = code


@dataclass(frozen=True)
class Next:
    config: Any


@dataclass(frozen=True)
class Final:
    pass


@dataclass(frozen=True)
class Stuck:
    reason: str


StepResult = Union[Next, Final, Stuck]


class StuckSignal(Exception):
    """Raised by a rule that cannot fire; `step` turns it into `Stuck`."""


@dataclass
class RunOutcome:
    status: str  # 'returned' | 'out_of_fuel' | 'stuck'
    value: Optional[V.Value] = None
    reason: str = ""
    steps: int = 0
    trace: list = field(default_factory=list)
    leaked: tuple[int, ...] = ()  # heap cells left behind (heap interpreter only)


def entry_fn(prog: S.Program, fname: str, inputs: list[V.Value]) -> S.FunctionDef:
    """The function a run starts in: simple, and given one input of the
    parameter's sort per parameter."""
    fn = prog.fn(fname)
    if not fn.is_simple():
        raise RunError("NotSimpleFunction", f"{fname} takes lifetime parameters")
    if len(inputs) != len(fn.params):
        raise RunError("SortMismatch", f"{fname} expects {len(fn.params)} arguments")
    for v, (x, t) in zip(inputs, fn.params):
        if not L.check_value(v, sort_of_type(t)):
            raise RunError("SortMismatch", f"argument {x!r}: {V.show(v)} does not fit {S.type_text(t)}")
    return fn


def drive(step: Callable[[Any], StepResult], cfg, fuel: int, keep_trace: bool,
          finish: Callable[[Any], tuple[V.Value, tuple[int, ...]]]) -> RunOutcome:
    """Step from cfg until a final or stuck configuration, or until fuel
    steps are spent.  `finish` reads the returned value and the leaked
    cells out of the final configuration.  A run that stutters (a step
    gives back the configuration it was applied to) is out of fuel at
    once, with the outcome and trace that stepping on to fuel gives."""
    trace = [cfg] if keep_trace else []
    steps = 0
    while True:
        res = step(cfg)
        if not isinstance(res, Next):
            if isinstance(res, Final):
                value, leaked = finish(cfg)
                return RunOutcome("returned", value=value, steps=steps, trace=trace, leaked=leaked)
            return RunOutcome("stuck", reason=res.reason, steps=steps, trace=trace)
        if steps >= fuel:
            return RunOutcome("out_of_fuel", steps=steps, trace=trace)
        # A rule that draws from the RNG, the allocator or the AOS
        # variable supply binds a variable its label's context lacks
        # (typeck refuses to rebind a live one), so a well-typed program
        # never sends it back to its own label and its result differs
        # from its input.  Every other rule is a pure function of the
        # configuration: an equal result comes back at every later step.
        if res.config == cfg:
            if keep_trace:
                trace += [cfg] * (fuel - steps)
            return RunOutcome("out_of_fuel", steps=fuel, trace=trace)
        cfg = res.config
        steps += 1
        if keep_trace:
            trace.append(cfg)
