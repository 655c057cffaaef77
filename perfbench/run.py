"""corhorn benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 30 --trace 0

With `--trace 0` it reports the end-to-end metrics named in BENCHMARK.json,
with `--trace 1` the per-layer metrics from a traced run.  It prints each
metric with its unit, writes the full record (provenance, sample counts,
report digest, raw wall times, failures) under perfbench/results/, and
prints as its last line {"correct", "attempted", "failed", "metrics"}.

Times are scaled to a reference host speed (see `calibrate`).  See
README.md for the workloads, the metrics and how to compare two runs.
"""

from __future__ import annotations

import time


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop.

    Host speed on a shared machine swings by up to 1.7x over tens of
    seconds, and CPU time swings with it.  Every op is bracketed by this
    loop, and its time is divided by the op's *host factor*: the mean of
    the two bracketing loop times over CAL_REF_S.  Reported times are
    therefore seconds on a host where this loop takes CAL_REF_S."""
    t0 = time.perf_counter()
    d = {}
    acc = 0
    for i in range(30_000):
        acc += i * i % 7
        d[i & 1023] = acc
    return time.perf_counter() - t0


CAL_REF_S = 0.005
CAL_START = calibrate()
T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"

BLOCK_ROUNDS = 2  # rounds in the report digest and in each traced/untraced block
MIN_OPS = 100  # a p90 needs ten samples beyond it
SETUP_SAMPLES = 3


class Recorder:
    """Runs rounds of ops, timing each op and checking its output.  An op
    that runs again (a round repeated) must give the same report bytes."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.factors: list[float] = []  # host factor of each op, by op id
        self.raw_s = 0.0  # unscaled op time
        self.failures: list[dict] = []
        self.mismatches: list[dict] = []
        self.digests: dict[tuple[int, int], str] = {}

    def run_round(self, r: int, tracer=None) -> list[float]:
        """Run round r; return each op's scaled time in seconds."""
        r %= len(self.wl.rounds)
        raw = []
        cals = [calibrate()]
        for i, op in enumerate(self.wl.rounds[r]):
            if tracer is not None:
                root = tracer.begin_op(self.attempted + i)
            t0 = time.perf_counter()
            try:
                result, error = self.wl.execute(op), None
            except Exception:  # a failed op is counted, and the run goes on
                result, error = None, traceback.format_exc(limit=3)
            raw.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end_op(root)
            if error is None:
                payload, error = self.wl.check(op, result)
            if error is not None:
                self.failures.append({"round": r, "index": i, "op": self._show(op), "error": error})
            else:
                digest = hashlib.sha256(payload).hexdigest()
                if self.digests.setdefault((r, i), digest) != digest:
                    self.mismatches.append({"round": r, "index": i, "op": self._show(op)})
            cals.append(calibrate())
        factors = [(a + b) / (2 * CAL_REF_S) for a, b in zip(cals, cals[1:])]
        self.attempted += len(raw)
        self.factors += factors
        self.raw_s += sum(raw)
        return [t / f for t, f in zip(raw, factors)]

    def _show(self, op) -> str:
        from corhorn import corpus, values as V

        args = ", ".join(V.show(v) for v in op.inputs)
        return f"{corpus.CORPUS[op.entry].name}({args}) seed={op.seed}"

    def block_digest(self) -> str:
        """SHA-256 over the report bytes' digests of the first
        BLOCK_ROUNDS rounds, in op order."""
        h = hashlib.sha256()
        for r in range(BLOCK_ROUNDS):
            for i in range(len(self.wl.rounds[r])):
                h.update(self.digests.get((r, i), "failed").encode())
        return h.hexdigest()


def setup(name: str, seed: int) -> tuple[Recorder, float]:
    """Imports, corpus load, typing, input generation and one untimed
    warm-up round, which fills corhorn's process-wide caches.  Time is
    counted from the start of this script and scaled like op times."""
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    rec = Recorder(wl)
    rec.run_round(0)
    raw = time.perf_counter() - T_START
    return rec, raw / ((CAL_START + calibrate()) / (2 * CAL_REF_S))


def child_setup_s(args) -> float:
    """Set-up time of a fresh process, so that imports and cold caches
    are paid again."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def end_to_end(args, rec: Recorder, setup_main: float) -> tuple[dict, dict]:
    setups = [setup_main] + [child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]
    first_op = rec.attempted
    raw_before = rec.raw_s
    latencies: list[float] = []
    r = 0
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if r >= BLOCK_ROUNDS and elapsed >= args.seconds and (
            len(latencies) >= MIN_OPS or elapsed >= 2 * args.seconds
        ):
            break
        latencies += rec.run_round(r)
        r += 1
    ms = sorted(x * 1000 for x in latencies)
    factors = rec.factors[first_op:]
    values = {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }
    extra = {
        "timed_ops": len(latencies), "timed_rounds": r, "measured_s": time.perf_counter() - t0,
        "samples": {"op_p50_ms": len(ms), "op_p90_ms": len(ms), "setup_s": len(setups)},
        "setup_samples_s": setups,
        "raw_ops_per_s": len(latencies) / (rec.raw_s - raw_before),
        "host_factor": {"median": statistics.median(factors), "min": min(factors), "max": max(factors)},
    }
    return values, extra


def per_layer(args, rec: Recorder) -> tuple[dict, dict]:
    """Alternate untraced and traced blocks of the same BLOCK_ROUNDS
    rounds until --seconds have passed.  Times are medians over traced
    blocks; counts must repeat exactly in every block."""
    import workloads
    from tracer import END, NAME, OP, OP_SPAN, START, Tracer, self_times

    tracer = Tracer()
    plain, traced, blocks = [], [], []
    count_mismatch = False
    slack = float("inf")  # least self time of an op root span, which must be >= 0
    t0 = time.perf_counter()
    while not blocks or time.perf_counter() - t0 < args.seconds:
        plain.append(sum(sum(rec.run_round(r)) for r in range(BLOCK_ROUNDS)))
        workloads.install_spans(tracer, args.workload)
        lo = len(tracer.spans)
        tracer.counts.clear()
        try:
            traced.append(sum(sum(rec.run_round(r, tracer)) for r in range(BLOCK_ROUNDS)))
        finally:
            tracer.unwrap_all()
        spans = tracer.spans
        selfs, inclusive = {}, {}
        for s, own in zip(spans[lo:], self_times(spans, lo, len(spans))):
            if s[NAME] == OP_SPAN:
                slack = min(slack, own)
                continue
            factor = rec.factors[s[OP]]
            selfs[s[NAME]] = selfs.get(s[NAME], 0.0) + own / factor
            inclusive[s[NAME]] = inclusive.get(s[NAME], 0.0) + (s[END] - s[START]) / factor
        counts = dict(tracer.counts)
        if blocks and counts != blocks[0][1]:
            count_mismatch = True
        blocks.append((workloads.layer_metrics(selfs, inclusive, counts), counts))
    values: dict[str, float] = {}
    for name in {k for b, _ in blocks for k in b}:
        values[name] = statistics.median(b.get(name, 0.0) for b, _ in blocks)
    values["trace_overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl.gz"
    tracer.write(spans_path)
    extra = {"blocks": len(blocks), "block_rounds": BLOCK_ROUNDS, "counts": blocks[0][1],
             "count_mismatch": count_mismatch, "op_self_s_min": slack,
             "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
             "plain_block_s": plain, "traced_block_s": traced}
    return values, extra


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """Digest of the corhorn sources and corpus, for checkouts without git."""
    h = hashlib.sha256()
    src = ROOT / "src" / "corhorn"
    for p in sorted(src.rglob("*")):
        if p.suffix in (".py", ".cor"):
            h.update(str(p.relative_to(src)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "corhorn" / "__init__.py").is_file():
        print(f"perfbench: no corhorn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    rec, setup_main = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_main}))
        return 0
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    if args.trace:
        values, extra = per_layer(args, rec)
    else:
        values, extra = end_to_end(args, rec, setup_main)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in specs}

    failed = len(rec.failures)
    correct = (failed == 0 and not rec.mismatches and not extra.get("count_mismatch")
               and extra.get("op_self_s_min", 0.0) >= -1e-9)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "correct": correct, "attempted": rec.attempted, "failed": failed,
        "error_rate": failed / rec.attempted, "report_digest": rec.block_digest(),
        "metrics": metrics, "cal_ref_s": CAL_REF_S, **extra,
        "failures": rec.failures[:5], "mismatches": rec.mismatches[:5],
        "provenance": {
            "git_sha": git_sha(), "source_sha256": source_sha256(),
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        },
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{args.workload:9s} {name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"error_rate {record['error_rate']:.6g} ({failed}/{rec.attempted}), "
          f"report digest {record['report_digest'][:16]}, record {out.relative_to(ROOT)}")
    for f in rec.failures[:3]:
        print(f"FAILED {f['op']}: {f['error'].strip().splitlines()[-1]}")
    print(json.dumps({"correct": correct, "attempted": rec.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
