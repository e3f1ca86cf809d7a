"""Time complex64 `irs_step` and `invert` in two source trees and write BENCH_screen_c64.json.

    python3 scripts/bench_screen_c64.py PARENT_SRC CHANGE_SRC --labels PARENT CHANGE

PARENT_SRC and CHANGE_SRC are two checkouts' ``src`` directories, run as
`bench_pair` runs them. Both calls take `kernels._rank_verdict`'s screen,
and an SVD where it cannot pass. A process draws, per n, A and B Ginibre
(`gen_ginibre`, A first, from ``Philox(n)``) rounded to complex64, warms up
with one call of each kind, then times three calls of ``irs_step(A, B)``
and three of ``invert(A)``. A run's time is the median of its three, and
its value the number of SVDs the three took.
"""

import os

from bench_pair import ROOT, compare

#: matrix orders timed, each for irs_step and for invert
SIZES = (128, 256, 512)
CALLS = ("irs_step", "invert")

WORKER = """
import json, statistics, sys, time
import numpy as np
from pencilpow import kernels
from pencilpow.harness.generators import gen_ginibre
from pencilpow.squaring import irs_step

svds = [0]
singular_values = kernels._singular_values

def counting(*args):
    svds[0] += 1
    return singular_values(*args)

kernels._singular_values = counting
out = []
for n in {sizes}:
    rng = np.random.Generator(np.random.Philox(n))
    a, b = (gen_ginibre(n, rng).astype(np.complex64) for _ in range(2))
    for call in (lambda: irs_step(a, b), lambda: kernels.invert(a)):
        call()
        svds[0], ms = 0, []
        for _ in range(3):
            t = time.perf_counter()
            call()
            ms.append((time.perf_counter() - t) * 1e3)
        out.append([statistics.median(ms), svds[0]])
json.dump(out, sys.stdout)
"""


def main():
    compare(__doc__, WORKER.format(sizes=SIZES),
            [f"{call}, complex64 Ginibre n={n}" for n in SIZES for call in CALLS], "svds",
            "wall time of one call, median of three per process, median of the repeats",
            os.path.join(ROOT, "BENCH_screen_c64.json"))


if __name__ == "__main__":
    main()
