"""In-memory span tracer for the traced benchmark run.

Spans are recorded from outside the package: `Tracer.wrap` replaces a
public function on its module with a wrapper, and `Tracer.unwrap_all`
puts the originals back.  Call sites inside corhorn reach the wrapper
because they look functions up on the module (`cos.run`, `L.unify`) or
through the module's globals (`canon_config` inside `sldc`).

A span is `[name, op_id, parent_index, start, end]`.  Wrappers record
only while an op is open, so the benchmark's own output checks, which
call some of the same functions, stay out of the trace.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter
from time import perf_counter
from typing import Callable, Optional

NAME, OP, PARENT, START, END = range(5)
OP_SPAN = "op"  # name of the root span of each op


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: Optional[int] = None
        self._open: list[int] = []
        self._patches: list[tuple[object, str, Callable]] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, self.op, parent, perf_counter(), None])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self._open.pop()

    def begin_op(self, op_id: int) -> int:
        self.op = op_id
        return self.begin(OP_SPAN)

    def end_op(self, idx: int) -> None:
        self.end(idx)
        self.op = None

    def wrap(self, module, attr: str, span: bool = True,
             on_result: Optional[Callable[[Counter, object], None]] = None) -> None:
        """Replace module.attr by a wrapper that counts calls and, with
        `span`, records a span; `on_result` takes counts from the
        returned object."""
        orig = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        calls = name + ".calls"
        counts = self.counts
        tracer = self

        if span:
            def wrapper(*args, **kwargs):
                if tracer.op is None:
                    return orig(*args, **kwargs)
                idx = tracer.begin(name)
                try:
                    out = orig(*args, **kwargs)
                finally:
                    tracer.end(idx)
                counts[calls] += 1
                if on_result is not None:
                    on_result(counts, out)
                return out
        else:
            def wrapper(*args, **kwargs):
                if tracer.op is not None:
                    counts[calls] += 1
                return orig(*args, **kwargs)

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, orig))

    def unwrap_all(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    def write(self, path) -> None:
        """All spans as gzipped JSON lines: name, op, parent, start, end
        (seconds on the perf_counter clock)."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def self_times(spans: list[list], lo: int, hi: int) -> list[float]:
    """Self time of spans[lo:hi]: duration minus the time covered by
    child spans.  Children are nested inside their parent and never
    overlap each other, since the benchmark runs one thread."""
    out = [s[END] - s[START] for s in spans[lo:hi]]
    for s in spans[lo:hi]:
        p = s[PARENT]
        if p is not None and p >= lo:
            out[p - lo] -= s[END] - s[START]
    return out
