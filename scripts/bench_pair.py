"""Time one suite of `bench_workers` in two source trees and write its BENCH_*.json.

    python3 scripts/bench_pair.py SUITE PARENT_SRC CHANGE_SRC [--labels PARENT CHANGE]
                                  [--repeats R] [--out PATH]

SUITE is a key of `bench_workers.SUITES`. PARENT_SRC and CHANGE_SRC are
directories holding the ``pencilpow`` package (a checkout's ``src``). Each
repeat starts one fresh process per tree, with ``PYTHONPATH=<tree>:<this
directory>``, which runs the suite's worker and prints its ``[ms, value]``
pairs as JSON; the tree that goes first alternates between repeats. The
output file (by default the suite's file at the repository root) holds, per
case and tree, the median and every run in ms and every value, the speedup of
the medians, and the environment block of ``perfbench/environment.py``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from bench_workers import SUITES

SCRIPTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(SCRIPTS)
sys.path.insert(0, ROOT)

from perfbench.environment import environment  # noqa: E402


def run_tree(src, worker):
    """Run ``worker`` in a fresh process that imports ``pencilpow`` from ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, SCRIPTS)))
    code = ("import json, sys, bench_workers; "
            f"json.dump(bench_workers.{worker.__name__}(), sys.stdout)")
    # the worker's stderr (a traceback, a warning) passes through
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("suite", choices=SUITES)
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--labels", nargs=2, default=("parent", "change"))
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out")
    args = parser.parse_args()
    suite = SUITES[args.suite]
    trees = dict(zip(("parent", "change"), (args.parent_src, args.change_src)))
    runs = {side: [] for side in trees}
    for r in range(args.repeats):
        for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
            runs[side].append(run_tree(trees[side], suite.worker))
            print(f"repeat {r} {side}: {runs[side][-1]}", file=sys.stderr)
    rows = []
    for i, name in enumerate(suite.cases):
        row = {"case": name}
        for side, label in zip(("parent", "change"), args.labels):
            ms = [run[i][0] for run in runs[side]]
            row[side] = {"label": label, "median_ms": statistics.median(ms), "runs_ms": ms,
                         suite.value: [run[i][1] for run in runs[side]]}
        row["speedup"] = row["parent"]["median_ms"] / row["change"]["median_ms"]
        rows.append(row)
    result = {"what": suite.what, "repeats": args.repeats, "cases": rows,
              "environment": environment()}
    with open(args.out or os.path.join(ROOT, suite.out), "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
