"""Compare two result records written by perfbench/run.py.

    python3 perfbench/compare.py OLD.json NEW.json

Prints each metric of both records with the relative change, then
whether the report digest and the exact work counts are identical.  For
two records of the same workload, seed and trace mode, a differing
digest or count means the two runs did different work; the exit code is
then 1.  One pair of runs says nothing about speed: compare the medians
of ten runs per side, as README.md describes.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(open(p).read()) for p in argv)
    for rec, path in ((old, argv[0]), (new, argv[1])):
        prov = rec["provenance"]
        print(f"{path}: {rec['workload']} seed {rec['seed']} trace {rec['trace']}, "
              f"git {prov['git_sha'] or '-'}, source {prov['source_sha256'][:12]}, "
              f"{rec['attempted']} ops, {rec['failed']} failed")
    for name, m in old["metrics"].items():
        a = m["value"]
        b = new["metrics"].get(name, {}).get("value")
        if b is None:
            print(f"  {name:40s} {a:14.6g} {'missing':>14s}")
            continue
        change = f"{b / a - 1:+.1%}" if a else ("same" if a == b else "new")
        print(f"  {name:40s} {a:14.6g} {b:14.6g} {m['unit']:6s} {change}")
    comparable = all(old[k] == new[k] for k in ("workload", "seed", "trace"))
    if not comparable:
        print("different workload, seed or trace mode: digests and counts are not comparable")
        return 0
    same_digest = old["report_digest"] == new["report_digest"]
    print(f"report digest: {'identical' if same_digest else 'DIFFERENT'}")
    differing = []
    if old["trace"]:
        keys = sorted(set(old["counts"]) | set(new["counts"]))
        differing = [k for k in keys if old["counts"].get(k) != new["counts"].get(k)]
        for k in differing:
            print(f"  count {k}: {old['counts'].get(k)} -> {new['counts'].get(k)}")
        print(f"work counts: {'identical' if not differing else 'DIFFERENT'}")
    return 0 if same_digest and not differing else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
