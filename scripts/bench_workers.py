"""The timed workers of `bench_pair`'s suites, and the table that names them.

A worker returns one ``[ms, value]`` pair per case, in the order of its
suite's case labels. `bench_pair` runs it in a fresh process whose
``PYTHONPATH`` puts one tree's ``src`` ahead of this directory, so each
worker imports ``pencilpow`` inside its body: reading `SUITES` needs no
source tree.
"""

import statistics
import time
from collections import namedtuple
from unittest import mock

import numpy as np

#: (n, seed) of each `omega` case
OMEGA_CASES = ((16, 1), (32, 7), (128, 1))
#: matrix orders of `screen_c64`, each timed for irs_step and for invert
SCREEN_SIZES = (128, 256, 512)
SCREEN_CALLS = ("irs_step", "invert")
#: dtypes and matrix orders of `invert`'s cases, dtype outermost
INVERT_DTYPES = ("complex128", "complex64")
INVERT_SIZES = (64, 128, 256)


def _ginibre_pair(n, seed):
    """A and B Ginibre (`gen_ginibre`), A drawn first, from ``Philox(seed)``."""
    from pencilpow.harness.generators import gen_ginibre

    rng = np.random.Generator(np.random.Philox(seed))
    return gen_ginibre(n, rng), gen_ginibre(n, rng)


def _median_of_three(call):
    """Median wall time in ms of three ``call()``s."""
    ms = []
    for _ in range(3):
        t = time.perf_counter()
        call()
        ms.append((time.perf_counter() - t) * 1e3)
    return statistics.median(ms)


def omega():
    """Time one `conditioning.omega_malyshev` call per case; the value is the omega it returned.

    The process warms up on n = 4, then times each (n, seed) of `OMEGA_CASES`.
    The n = 128 case uses seed 1, whose rule settles at 2^13 nodes: seed 7's
    needs 2^16, and one call of the node-by-node rule on it ran past 5 minutes.
    """
    from pencilpow.conditioning import omega_malyshev

    omega_malyshev(*_ginibre_pair(4, 0))
    out = []
    for n, seed in OMEGA_CASES:
        a, b = _ginibre_pair(n, seed)
        t = time.perf_counter()
        value = omega_malyshev(a, b)
        out.append([(time.perf_counter() - t) * 1e3, value])
    return out


def screen_c64():
    """Time complex64 `squaring.irs_step` and `kernels.invert`; the value is the SVDs they took.

    Both calls take `kernels._rank_verdict`'s screen, and an SVD where it
    cannot pass. Per n of `SCREEN_SIZES`, A and B come from ``Philox(n)``,
    rounded to complex64; one call of each kind warms up, then three calls of
    ``irs_step(A, B)`` and three of ``invert(A)`` are timed. A call at n = 128
    takes 5-10 ms, so one timing per process would be judged on the box's
    noise alone: a run's time is the median of its three, and its value the
    number of `kernels._singular_values` calls the three made.
    """
    from pencilpow import kernels
    from pencilpow.squaring import irs_step

    out = []
    with mock.patch.object(kernels, "_singular_values", wraps=kernels._singular_values) as svd:
        for n in SCREEN_SIZES:
            a, b = (x.astype(np.complex64) for x in _ginibre_pair(n, n))
            for call in (lambda: irs_step(a, b), lambda: kernels.invert(a)):
                call()
                svd.reset_mock()
                out.append([_median_of_three(call), svd.call_count])
    return out


def invert():
    """Time `kernels.invert`; the value is the residual ``||X A - I||_2`` of its X.

    Per dtype of `INVERT_DTYPES` and n of `INVERT_SIZES`, A is the first
    Ginibre matrix from ``Philox(n)``, rounded to the dtype. A call at n = 64
    takes under 1 ms, so a run's time is the median of three calls after one
    that warms up. The residual is taken in complex128, so a complex64 X is
    judged without a second rounding.
    """
    from pencilpow import kernels

    out = []
    for dtype in INVERT_DTYPES:
        for n in INVERT_SIZES:
            a = _ginibre_pair(n, n)[0].astype(dtype)
            x = kernels.invert(a).astype(np.complex128)  # warms up
            ms = _median_of_three(lambda: kernels.invert(a))
            residual = np.linalg.norm(x @ a.astype(np.complex128) - np.eye(n), 2)
            out.append([ms, float(residual)])
    return out


Suite = namedtuple("Suite", "worker cases value what out")

#: each suite's worker, case labels, value name, what one run measures, and default output
SUITES = {
    "omega": Suite(
        omega, [f"omega_malyshev, Ginibre n={n}, Philox({seed})" for n, seed in OMEGA_CASES],
        "omega", "wall time of one omega_malyshev call, median of the repeats",
        "BENCH_omega.json"),
    "screen_c64": Suite(
        screen_c64,
        [f"{call}, complex64 Ginibre n={n}" for n in SCREEN_SIZES for call in SCREEN_CALLS],
        "svds", "wall time of one call, median of three per process, median of the repeats",
        "BENCH_screen_c64.json"),
    "invert": Suite(
        invert, [f"invert, {dtype} Ginibre n={n}" for dtype in INVERT_DTYPES for n in INVERT_SIZES],
        "residual", "wall time of one call, median of three per process, median of the repeats",
        "BENCH_invert.json"),
}
