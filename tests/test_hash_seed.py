"""Every pinned digest, and the reports of `oracle` and `bisim`, are the
same under any PYTHONHASHSEED: no output may follow the iteration order
of a set or dict of strings."""

import concurrent.futures
from pathlib import Path

from helpers import python_under_hash_seed

TESTS = str(Path(__file__).resolve().parent)

# Prints, per corpus entry, the digests that the step, step-up-to-renaming,
# enumeration and run/lockstep pins compare; then the feature translation
# digests, the SMT-LIB script digests, and one oracle and one bisim report.
PRINT_DIGESTS = f"""
import contextlib, hashlib, io, sys
sys.path.insert(0, {TESTS!r})
import test_features, test_harness, test_sldc, test_smtlib, test_translate
from corhorn import cli, corpus

for e in corpus.CORPUS:
    print(e.name, test_sldc._step_digest(e), test_sldc._step_renaming_digest(e),
          test_sldc._enum_digest(e), test_harness._entry_digest(e))
for name, src, *_ in test_features.CASES:
    print(name, test_translate._feature_digest(src))
for name, script in test_smtlib._pinned_scripts():
    print(name, hashlib.sha256(script.encode()).hexdigest())
for command, entry, fn, flags in [("oracle", "linger_dec", "linger_dec_main", ["--samples", "20"]),
                                  ("bisim", "inc_some", "inc_some", ["--runs", "5"])]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([command, str(corpus.source_path(entry)), "--fn", fn, "--seed", "5",
                         "--json", *flags])
    print(command, code, out.getvalue())
"""


def test_pinned_outputs_do_not_depend_on_the_hash_seed():
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        procs = list(pool.map(lambda seed: python_under_hash_seed(seed, "-c", PRINT_DIGESTS), (1, 2)))
    for proc in procs:
        assert proc.returncode == 0, proc.stderr
    assert procs[0].stdout == procs[1].stdout
