"""The parent/change runner shared by the ``scripts/bench_*.py`` timings.

`compare` reads ``PARENT_SRC CHANGE_SRC [--labels PARENT CHANGE] [--repeats
R] [--out PATH]`` from the command line. PARENT_SRC and CHANGE_SRC are
directories holding the ``pencilpow`` package (a checkout's ``src``). Each
repeat starts one fresh process per tree, running the script's worker code,
and the tree that goes first alternates between repeats. A worker prints a
JSON list with one ``[ms, value]`` pair per case. The output file holds, per
case and tree, the median and every run in ms and every value, the speedup
of the medians, and the environment block of ``perfbench/environment.py``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.environment import environment  # noqa: E402


def run_tree(src, code):
    """Run the worker ``code`` in a fresh process that imports ``pencilpow`` from ``src``."""
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout)


def compare(doc, code, cases, value, what, out):
    """Time ``code`` in both trees and write the JSON file (``out`` by default).

    ``doc`` is the calling script's docstring, ``cases`` names the worker's
    cases in order, ``value`` names the second entry of each pair, and
    ``what`` says what one run measures.
    """
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--labels", nargs=2, default=("parent", "change"))
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default=out)
    args = parser.parse_args()
    trees = dict(zip(("parent", "change"), (args.parent_src, args.change_src)))
    runs = {side: [] for side in trees}
    for r in range(args.repeats):
        for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
            runs[side].append(run_tree(trees[side], code))
            print(f"repeat {r} {side}: {runs[side][-1]}", file=sys.stderr)
    rows = []
    for i, name in enumerate(cases):
        row = {"case": name}
        for side, label in zip(("parent", "change"), args.labels):
            ms = [run[i][0] for run in runs[side]]
            row[side] = {"label": label, "median_ms": statistics.median(ms), "runs_ms": ms,
                         value: [run[i][1] for run in runs[side]]}
        row["speedup"] = row["parent"]["median_ms"] / row["change"]["median_ms"]
        rows.append(row)
    result = {"what": what, "repeats": args.repeats, "cases": rows, "environment": environment()}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
