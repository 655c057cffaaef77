"""Every pinned digest, and the reports of `oracle` and `bisim`, are the
same under any PYTHONHASHSEED: no output may follow the iteration order
of a set or dict of strings."""

import concurrent.futures
from pathlib import Path

from helpers import python_under_hash_seed

TESTS = str(Path(__file__).resolve().parent)

# Prints, per corpus entry, the digests that the step, step-up-to-renaming,
# enumeration and run/lockstep pins compare; then the feature translation
# digests, the SMT-LIB script digests, and one oracle and one bisim report;
# then one oracle report twice under one typing, the second from the system
# the first recorded on it; then one bisim pair (both lockstep reports, every
# step) twice under one typing, the second from the label clauses the first
# recorded on it.
PRINT_DIGESTS = f"""
import contextlib, hashlib, io, random, sys
sys.path.insert(0, {TESTS!r})
import test_features, test_harness, test_sldc, test_smtlib, test_translate
from corhorn import cli, corpus, harness, logic, translate, typeck

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
prog = corpus.load("linger_dec")
typing = typeck.type_program(prog)
sorts = [translate.sort_of_type(t) for _, t in prog.fn("linger_dec_main").params]
tuples = list(logic.valuations(sorts, logic.SampleSpec(-8, 8, max_depth=3), random.Random(5), 1000, 20))
for _ in range(2):
    print("oracle warm", harness.oracle_diff(prog, "linger_dec_main", tuples, seeds=range(3),
                                             typing=typing))
prog = corpus.load("inc_some")
typing = typeck.type_program(prog)
rng = random.Random(5)
inputs = corpus.random_inputs(prog, "inc_some", rng, logic.SampleSpec(-4, 4, max_depth=3))
seed = rng.randrange(2 ** 31)
for _ in range(2):
    for check in (harness.lockstep_cos_aos, harness.lockstep_aos_sldc):
        print("bisim warm", check(prog, "inc_some", inputs, seed=seed, fuel=250, typing=typing,
                                  rand_range=(-8, 8)))
"""


def test_pinned_outputs_do_not_depend_on_the_hash_seed():
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        procs = list(pool.map(lambda seed: python_under_hash_seed(seed, "-c", PRINT_DIGESTS), (1, 2)))
    for proc in procs:
        assert proc.returncode == 0, proc.stderr
    assert procs[0].stdout == procs[1].stdout
