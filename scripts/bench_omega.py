"""Time `conditioning.omega_malyshev` in two source trees and write BENCH_omega.json.

    python3 scripts/bench_omega.py PARENT_SRC CHANGE_SRC --labels PARENT CHANGE

PARENT_SRC and CHANGE_SRC are two checkouts' ``src`` directories, run as
`bench_pair` runs them. A process warms up on n = 4, then times one call
per case: A and B Ginibre (`gen_ginibre`), A drawn first, from
``Philox(seed)``. The n = 128 case uses seed 1, whose rule settles at 2^13
nodes: seed 7's needs 2^16, and one call of the node-by-node rule on it ran
past 5 minutes. The value of each run in the file is the omega it returned.
"""

import os

from bench_pair import ROOT, compare

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


def main():
    compare(__doc__, WORKER.format(cases=CASES),
            [f"omega_malyshev, Ginibre n={n}, Philox({seed})" for n, seed in CASES], "omega",
            "wall time of one omega_malyshev call, median of the repeats",
            os.path.join(ROOT, "BENCH_omega.json"))


if __name__ == "__main__":
    main()
