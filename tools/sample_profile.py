"""Statistical profiler for the benchmark workloads.

    python3 tools/sample_profile.py --workload bisim --seed 3 --rounds 30

Builds a `perfbench/workloads.py` workload at the seed, runs one warm-up
round, then --rounds rounds of it in this process while a SIGPROF timer
(`signal.setitimer(ITIMER_PROF)`) asks for a tick every INTERVAL seconds
of process CPU time.  Each tick records the Python stack it interrupts.
The report lists the TOP functions by self share (samples with the
function on top) and by cumulative share (samples with the function
anywhere on the stack), both over all samples.

Unlike cProfile, which adds a fixed cost to every call and so inflates
small functions, a tick costs the same wherever it lands.  Time spent in
native code counts for the Python function that called it.  Ticks come
no faster than the kernel's timer rate: on a 2-core Linux host, the
1 ms INTERVAL gave about 250 samples per CPU second.  The workloads module
is only imported, never changed.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
INTERVAL = 0.001  # seconds of process CPU time asked for between ticks
TOP = 30  # functions listed per share


class Profile(NamedTuple):
    samples: int
    self_counts: Counter  # function -> samples with it on top
    cum_counts: Counter  # function -> samples with it on the stack


def _name(code) -> str:
    return f"{os.path.basename(code.co_filename)}:{getattr(code, 'co_qualname', code.co_name)}"


def sample(workload: str, seed: int, rounds: int) -> Profile:
    """Profile `rounds` rounds of the workload after one warm-up round."""
    for path in (ROOT / "src", ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import workloads

    wl = workloads.WORKLOADS[workload](seed)
    for op in wl.rounds[0]:
        wl.execute(op)
    self_counts: Counter = Counter()
    cum_counts: Counter = Counter()
    samples = 0
    own_file = sample.__code__.co_filename

    def tick(signum, frame):
        nonlocal samples
        if frame is None:
            return
        samples += 1
        self_counts[_name(frame.f_code)] += 1
        seen = set()
        while frame is not None:
            if frame.f_code.co_filename != own_file:  # leave out the profiler's frames
                seen.add(_name(frame.f_code))
            frame = frame.f_back
        cum_counts.update(seen)

    previous = signal.signal(signal.SIGPROF, tick)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
    try:
        for r in range(1, rounds + 1):
            for op in wl.rounds[r % len(wl.rounds)]:
                wl.execute(op)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
    return Profile(samples, self_counts, cum_counts)


def report(prof: Profile) -> str:
    lines = [f"{prof.samples} samples"]
    for title, counts in (("self", prof.self_counts), ("cumulative", prof.cum_counts)):
        lines.append(f"\n{title} share, top {TOP}:")
        for name, n in counts.most_common(TOP):
            lines.append(f"  {100 * n / max(prof.samples, 1):6.2f}%  {name}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="a workload named in perfbench/workloads.py")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--rounds", type=int, default=30)
    args = ap.parse_args(argv)
    print(report(sample(args.workload, args.seed, args.rounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
