"""Time `conditioning.omega_malyshev` in two source trees and write BENCH_omega.json.

    python3 scripts/bench_omega.py PARENT_SRC CHANGE_SRC --labels PARENT CHANGE

PARENT_SRC and CHANGE_SRC are directories holding the ``pencilpow`` package
(a checkout's ``src``). Each repeat starts one fresh process per tree, and
the tree that goes first alternates between repeats. A process warms up on
n = 4, then times one call per case: A and B Ginibre (`gen_ginibre`), A
drawn first, from ``Philox(seed)``. The n = 128 case uses seed 1, whose rule
settles at 2^13 nodes: seed 7's needs 2^16, and one call of the node-by-node
rule on it ran past 5 minutes. The file holds, per case and tree, the median and every
run in ms, the omega each run returned, and the environment block of
``perfbench/environment.py``.
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

#: (n, seed) of each case
CASES = ((16, 1), (32, 7), (128, 1))

WORKER = """
import json, sys, time
import numpy as np
from pencilpow.conditioning import omega_malyshev
from pencilpow.harness.generators import gen_ginibre

def pencil(n, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return gen_ginibre(n, rng), gen_ginibre(n, rng)

omega_malyshev(*pencil(4, 0))
out = []
for n, seed in {cases}:
    a, b = pencil(n, seed)
    t = time.perf_counter()
    omega = omega_malyshev(a, b)
    out.append([(time.perf_counter() - t) * 1e3, omega])
json.dump(out, sys.stdout)
"""


def run_tree(src):
    env = dict(os.environ, PYTHONPATH=src)
    code = WORKER.format(cases=CASES)
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--labels", nargs=2, default=("parent", "change"))
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_omega.json"))
    args = parser.parse_args()
    trees = dict(zip(("parent", "change"), (args.parent_src, args.change_src)))
    runs = {side: [] for side in trees}
    for r in range(args.repeats):
        for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
            runs[side].append(run_tree(trees[side]))
            print(f"repeat {r} {side}: {runs[side][-1]}", file=sys.stderr)
    cases = []
    for i, (n, seed) in enumerate(CASES):
        case = {"case": f"omega_malyshev, Ginibre n={n}, Philox({seed})"}
        for side, label in zip(("parent", "change"), args.labels):
            ms = [run[i][0] for run in runs[side]]
            case[side] = {"label": label, "median_ms": statistics.median(ms), "runs_ms": ms,
                          "omega": [run[i][1] for run in runs[side]]}
        case["speedup"] = case["parent"]["median_ms"] / case["change"]["median_ms"]
        cases.append(case)
    result = {
        "what": "wall time of one omega_malyshev call, median of the repeats",
        "repeats": args.repeats,
        "cases": cases,
        "environment": environment(),
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
