"""The benchmark's workloads: inputs from a seed, one op, and its reference check.

Each workload is driven as a closed loop by one client: the next op starts
when the previous one has returned and been checked. Inputs are made with
`pencilpow.harness.generators` from the seed alone; the library sees only the
generated matrices. A check returns the worst ``rel_err / u`` over the op's
outputs (``u`` the unit roundoff of each output's dtype) and whether every
output met its tolerance, which is itself a multiple of ``u``.
"""

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from pencilpow import expm as expm_module
from pencilpow import squaring
from pencilpow.harness import emit, experiments, generators
from pencilpow.precision import unit_roundoff


@dataclass(frozen=True)
class Check:
    worst_ratio: float  # max over outputs of rel_err / u
    passed: bool


@dataclass(frozen=True)
class Workload:
    name: str
    size: str
    setup: Callable  # (seed, workdir) -> state
    op: Callable  # (state, op_index) -> outputs
    check: Callable  # (state, op_index, outputs) -> Check
    work: Callable = None  # outputs -> {per-layer metric: count}, where outputs carry one


def _rel_err(x, reference):
    diff = np.asarray(x, dtype=np.complex128) - reference
    return float(np.linalg.norm(diff) / np.linalg.norm(reference))


def _check_outputs(results):
    """``results`` holds (rel_err, u, tol) per output."""
    worst = max(err / u for err, u, _ in results)
    passed = all(math.isfinite(err) and err <= tol for err, _, tol in results)
    return Check(worst_ratio=worst, passed=passed)


# -- pencil_power -------------------------------------------------------------
# The library's headline use: the spectral projector a divide-and-conquer
# eigensolver splits on. n=256 makes the 2n-by-2n Q of each step (4 MiB)
# about the size of a core's L2, where BLAS threading pays off.

PENCIL_N = 256
PENCIL_P = 10
PENCIL_POOL = 16


def _pencil_setup(seed, workdir):
    rng = generators.rng_from_seed(seed)
    n, inside = PENCIL_N, PENCIL_N // 2
    cases = []
    for _ in range(PENCIL_POOL):
        a = generators.gen_ginibre(n, rng)
        v = generators.gen_haar(n, rng)
        d = np.concatenate([
            generators.sample_spectrum("annulus", inside, rng, 0.5, 0.8),
            generators.sample_spectrum("annulus", n - inside, rng, 1.25, 2.0),
        ])
        pencil, _ = generators.build_test_pencil(a, v, d)
        # (A_p + B_p)^-1 A_p -> (I + D^(2^p))^-1 in the eigenbasis, which for
        # p = 10 is 1 on |d| < 1 and 0 outside to far below roundoff.
        projector = (v * (np.abs(d) < 1.0)[None, :]) @ v.conj().T
        cases.append((pencil.a, pencil.b, projector))
    return cases


def _pencil_op(cases, i):
    a, b, _ = cases[i % len(cases)]
    run = squaring.irs(a, b, PENCIL_P)
    return squaring.spectral_projector(run)


def _pencil_check(cases, i, projector):
    a, _, reference = cases[i % len(cases)]
    u = unit_roundoff(projector)
    # the error grows with kappa_2(A) (about 0.3 kappa u for these pencils),
    # and a Ginibre A at n=256 has kappa in the thousands now and then
    tol = 10.0 * (np.linalg.cond(a) + PENCIL_N) * u
    return _check_outputs([(_rel_err(projector, reference), u, tol)])


# -- expm_n128 ----------------------------------------------------------------
# The expm layer, both squaring backends (irs_step in fast mode) and the only
# complex64 outputs. At n=32 this op is dominated by per-call overhead, but on
# a 2-core host its time there flips between regimes up to 2x apart for tens
# of seconds (the two OpenBLAS pools' spinning workers and the main thread
# contend for the cores), which no 30 s run can average out; n=128 keeps the
# run-to-run spread within the bounds.

EXPM_N = 128
EXPM_RADIUS = 3.0
EXPM_KAPPA_V = 10.0  # kappa_2(V) exactly, so one u-scaled tolerance fits every seed
EXPM_POOL = 8
EXPM_CONFIGS = tuple(
    expm_module.ExpmConfig(squaring_backend=backend) for backend in ("explicit", "irs")
)
EXPM_DTYPES = (np.complex64, np.complex128)


def _expm_setup(seed, workdir):
    rng = generators.rng_from_seed(seed)
    n = EXPM_N
    sigma = np.geomspace(1.0, EXPM_KAPPA_V, n)
    cases = []
    for _ in range(EXPM_POOL):
        left = generators.gen_haar(n, rng)
        right = generators.gen_haar(n, rng)
        v = (left * sigma[None, :]) @ right.conj().T
        v_inv = (right / sigma[None, :]) @ left.conj().T
        d = EXPM_RADIUS * generators.sample_spectrum("disk", n, rng)
        m = (v * d[None, :]) @ v_inv
        reference = (v * np.exp(d)[None, :]) @ v_inv
        cases.append(([m.astype(dt) for dt in EXPM_DTYPES], reference))
    return cases


def _expm_op(cases, i):
    inputs, _ = cases[i % len(cases)]
    return [expm_module.expm(m, config) for config in EXPM_CONFIGS for m in inputs]


def _expm_check(cases, i, outputs):
    reference = cases[i % len(cases)][1]
    results = []
    for x in outputs:
        u = unit_roundoff(x)
        results.append((_rel_err(x, reference), u, 10.0 * EXPM_N * EXPM_KAPPA_V * u))
    return _check_outputs(results)


# -- experiment_sweep ---------------------------------------------------------
# The desk-scale run users launch: one general_square trial at n=128, where
# the harness's own measurements (error norms, kappas) outweigh the recursion
# and default BLAS threading costs the most.

SWEEP_N = 128
SWEEP_P_MAX = 15
SWEEP_NAME = "general_square"


@dataclass(frozen=True)
class SweepState:
    seed: int
    workdir: str


def _sweep_seed(seed, i):
    return (seed << 20) + i


def _sweep_setup(seed, workdir):
    return SweepState(seed=seed, workdir=workdir)


def _sweep_op(state, i):
    config = experiments.ExperimentConfig(
        experiment=SWEEP_NAME, n=SWEEP_N, trials=1, p_max=SWEEP_P_MAX,
        conditioning="well", spectrum="circle", precision="binary64",
        seed=_sweep_seed(state.seed, i), output_dir=state.workdir,
    )
    records = experiments.run_experiment(config)
    path = emit.emit_csv(records, os.path.join(state.workdir, f"{SWEEP_NAME}.csv"), SWEEP_NAME)
    return records, emit.parse_csv(path)


def _same_record(a, b):
    return all(
        x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y))
        for x, y in zip(vars(a).values(), vars(b).values())
    )


def _sweep_work(outputs):
    records = outputs[0]
    return {
        "harness.rows": len(records),
        "harness.sentinel_rows": sum(math.isnan(r.err_irs) for r in records),
    }


def _sweep_check(state, i, outputs):
    records, (name, parsed) = outputs
    u = unit_roundoff("binary64")
    shape_ok = (
        [r.p for r in records] == list(range(1, SWEEP_P_MAX + 1))
        and all(r.trial == 0 for r in records)
    )
    round_trip_ok = (
        name == SWEEP_NAME and len(parsed) == len(records)
        and all(_same_record(a, b) for a, b in zip(records, parsed))
    )
    # The error starts near kappa_2(A) u and, with |d| = 1 on the circle,
    # grows as 2^p. kappa_2(A) is recomputed from the trial's first draw, the
    # way the runner makes A, rather than read from the records under test.
    a = generators.gen_ginibre(SWEEP_N, generators.rng_from_seed(_sweep_seed(state.seed, i)))
    kappa = np.linalg.cond(a)
    results = [
        (r.err_irs, u, kappa * (100.0 + 2.0 ** r.p) * u)
        for r in records if not math.isnan(r.err_irs)
    ]
    if not results:
        return Check(worst_ratio=math.inf, passed=False)
    check = _check_outputs(results)
    return Check(check.worst_ratio, check.passed and shape_ok and round_trip_ok)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pencil_power", f"complex128 n={PENCIL_N}, p={PENCIL_P}",
                 _pencil_setup, _pencil_op, _pencil_check),
        Workload("expm_n128", f"complex64+complex128 n={EXPM_N}, 2 backends",
                 _expm_setup, _expm_op, _expm_check),
        Workload("experiment_sweep", f"complex128 n={SWEEP_N}, p_max={SWEEP_P_MAX}, 1 trial",
                 _sweep_setup, _sweep_op, _sweep_check, _sweep_work),
    )
}
