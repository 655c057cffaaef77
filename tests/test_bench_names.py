"""The traced benchmark wraps corhorn functions by name
(`perfbench/workloads.install_spans`).  Renaming or deleting one of them
breaks only `--trace 1` runs, so check here that every workload's names
resolve and that unwrapping restores the originals."""

from pathlib import Path

import pytest

from corhorn import aos, cos, harness, logic, parser, sldc, smtlib, translate, typeck

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = (aos, cos, harness, logic, parser, sldc, smtlib, translate, typeck)


def _functions() -> dict:
    return {(m.__name__, k): v for m in MODULES for k, v in vars(m).items() if callable(v)}


@pytest.mark.parametrize("workload", ["frontend", "oracle", "bisim"])
def test_traced_names_resolve_and_unwrap(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer
    from workloads import WORKLOADS, install_spans

    assert workload in WORKLOADS
    before = _functions()
    tracer = Tracer()
    try:
        install_spans(tracer, workload)
        wrapped = {k for k, v in _functions().items() if before.get(k) is not v}
    finally:
        tracer.unwrap_all()
    assert ("corhorn.harness", "safe_link") in wrapped
    assert _functions() == before
