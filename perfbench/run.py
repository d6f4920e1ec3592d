#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest [--seed N]

The first form builds perfbench/main.exe with dune and runs one
measurement; the last line of standard output is the result JSON.  The
second runs every workload in turn, one result line each, prefixed with
the workload's name.  The third is the determinism self-test: it runs
set-up plus SELFTEST_OPS ops of every workload twice on one seed and
requires identical exact counts (instance fingerprints,
witnesses, rows, solves, pivots, nodes, refactorisations, cuts) and minor
words equal to within 1e-5.
Run from the repository root; everything is read and written below it.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ["rank_sparse", "oneshot_paper", "enum_dense", "serve_rw"]
RUN_TIMEOUT = 170
SELFTEST_OPS = "40"
OUT = os.path.join(HERE, "out")
# Temporary files (dune's among them) stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=os.path.join(OUT, "tmp"))


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at %s: run from a full checkout" % ROOT)
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    # Build output goes to stderr so the last stdout line stays the result.
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled", "--display=quiet",
         "./perfbench/main.exe"],
        cwd=ROOT, env=ENV, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def run(args, capture=False):
    try:
        r = subprocess.run([EXE] + args, cwd=ROOT, env=ENV, timeout=RUN_TIMEOUT,
                           stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT)
    if r.returncode != 0:
        fail("main.exe exited with %d" % r.returncode)
    return r.stdout.decode() if capture else None


def opt(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def selftest(argv):
    seed = opt(argv, "--seed", "7")
    ok = True
    for w in WORKLOADS:
        outs = [run(["--workload", w, "--seed", seed, "--counts", SELFTEST_OPS], capture=True)
                for _ in range(2)]
        first, second = (json.loads(o.strip().splitlines()[-1]) for o in outs)
        differ = sorted(k for k in first if k != "minor_words" and first[k] != second.get(k))
        # A few allocated words depend on the times themselves: Obs.Clock
        # skips one boxed store when the wall clock steps back, and serve
        # responses carry solve times as decimal text.
        if abs(first["minor_words"] - second["minor_words"]) > 1e-5 * first["minor_words"]:
            differ.append("minor_words")
        ok = ok and not differ and first["failed"] == 0 and first["first_ok"]
        print("%s: %s %s" % (w, "identical" if not differ else "DIFFERENT in " + ", ".join(differ),
                             json.dumps({k: v for k, v in first.items() if k != "fingerprints"})))
    sys.exit(0 if ok else 1)


def main():
    argv = sys.argv[1:]
    build()
    if "--selftest" in argv:
        selftest(argv)
    workload = opt(argv, "--workload", None)
    if workload != "all" and workload not in WORKLOADS:
        fail("--workload must be all or one of " + ", ".join(WORKLOADS))
    seed = opt(argv, "--seed", "1")
    trace = opt(argv, "--trace", "0")
    for w in WORKLOADS if workload == "all" else [workload]:
        args = ["--workload", w, "--seed", seed, "--seconds", opt(argv, "--seconds", "25"),
                "--trace", trace]
        if trace == "1":
            args += ["--spans", os.path.join(OUT, "spans-%s-%s.jsonl" % (w, seed))]
        if workload == "all":
            print(w + ": " + run(args, capture=True).strip().splitlines()[-1], flush=True)
        else:
            run(args)


if __name__ == "__main__":
    main()
