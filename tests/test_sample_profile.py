"""`tools/sample_profile.py`, the statistical profiler of the benchmark
workloads, runs and samples one round of a workload."""

import importlib.util
import sys
import time
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "sample_profile.py"


def test_sample_profile_samples_one_frontend_round(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool adds perfbench/ to it
    spec = importlib.util.spec_from_file_location("sample_profile", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    t0 = time.process_time()  # CPU time, so load from other processes does not count
    prof = tool.sample("frontend", seed=3, rounds=1)
    assert time.process_time() - t0 < 3
    assert prof.samples > 0 and sum(prof.self_counts.values()) == prof.samples
    assert max(prof.cum_counts.values()) <= prof.samples
    assert "workloads.py:Frontend.execute" in prof.cum_counts
    assert tool.report(prof).startswith(f"{prof.samples} samples")
