"""Desk-scale experiment runners.

Each runner draws reproducible random problems (per-trial seed = root seed
XOR trial index), exercises implicit repeated squaring against the explicit
algorithm, and returns flat `TrialRecord` rows ready for CSV/SVG emission.
Relative errors are measured against the diagonalization oracle
V D^(2^p) V^-1 that the problems are constructed from.
"""

import math
import numbers
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .. import kernels
from ..conditioning import _kappa, _root_count, sigma_min_mp
from ..errors import DomainError, NumericallySingularError
from ..expm import _final_pencil
from ..kernels import _kappa_sigma
from ..precision import dtype_for, unit_roundoff
from ..squaring import explicit_iter, explicit_squaring, implicit_to_explicit, irs, irs_iter
from .generators import (
    _check_sampling,
    build_test_pencil,
    gen_ginibre,
    gen_haar,
    make_ill_conditioned,
    rng_from_seed,
    sample_spectrum,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "TrialRecord",
    "BoundReportRow",
    "BoundReport",
    "run_square_experiment",
    "run_condition_evolution",
    "run_expm_experiment",
    "run_bound_report",
    "run_experiment",
]

EXPERIMENTS = (
    "toy_identity",
    "general_square",
    "condition_evolution",
    "expm_compare",
)

CONDITIONINGS = ("well", "ill")

#: per-trial relative-error cutoff mirroring "stop squaring once error explodes".
EXPLOSION_CUTOFF = 1e3


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat description of one experiment run; building one checks every setting a runner reads."""

    experiment: str = "general_square"
    n: int = 128
    trials: int = 20
    p_max: int = 15
    conditioning: str = "well"
    spectrum: str = "circle"
    annulus_r_lo: float = 0.95
    annulus_r_hi: float = 1.05
    delta: float = 1e-8
    precision: str = "binary64"
    seed: int = 0
    output_dir: str = "."

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise DomainError(f"unknown experiment {self.experiment!r}; expected {EXPERIMENTS}")
        for name in ("n", "trials", "p_max"):
            if not isinstance(getattr(self, name), numbers.Integral):  # numpy integers pass
                raise DomainError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.trials < 1 or self.n < 2 or self.p_max < 1:
            raise DomainError("config requires trials >= 1, n >= 2, p_max >= 1")
        if self.conditioning not in CONDITIONINGS:
            raise DomainError(
                f"unknown conditioning {self.conditioning!r}; expected {CONDITIONINGS}")
        _check_sampling(self.seed, self.spectrum, self.annulus_r_lo, self.annulus_r_hi, self.delta)
        dtype_for(self.precision)  # validates the name
        if not self.output_dir:
            raise DomainError("output_dir must be a non-empty path")


@dataclass(frozen=True)
class TrialRecord:
    """One (trial, step) row of an experiment.

    ``err_irs`` / ``err_es`` are relative spectral-norm errors against the
    construction oracle; NaN marks a sentinel (the algorithm failed at this
    step, e.g. numerically singular A_p). ``s_selected`` is only populated
    by the exponential experiment.
    """

    trial: int
    p: int
    err_irs: float = float("nan")
    err_es: float = float("nan")
    kappa_a_input: float = float("nan")
    kappa_ap: float = float("nan")
    sigma_n_ap: float = float("nan")
    s_selected: int | None = None


def _trial_seed(config, trial):
    return config.seed ^ trial


def _rel_err(compute, oracle, oracle_norm):
    """Relative 2-norm error of ``compute()`` against the oracle.

    NaN (the sentinel) when the computation raises `NumericallySingularError`
    or `DomainError`, returns a non-finite matrix, or returns None (an
    exhausted `explicit_iter`, whose path failed at an earlier step), and
    when the difference from the oracle overflows.
    """
    try:
        x = compute()
        if x is None:
            return float("nan")
        with np.errstate(over="ignore", invalid="ignore"):  # spectral_norm checks it
            diff = np.asarray(x, dtype=np.complex128) - oracle
        return float(kernels.spectral_norm(diff) / oracle_norm)
    except (NumericallySingularError, DomainError):
        return float("nan")


def _measured_runs(a0, b0, oracle, p_max):
    """Yield ``(run, err_irs, err_es)`` for p = 1 .. p_max: absolute 2-norm errors.

    The runners' one measured step loop: `irs_iter` and `explicit_iter`
    skip their p = 0 values (the input pencil and D_0) and advance
    together, and both are measured against ``oracle(p)`` by
    `_rel_err`. Stops before the first p whose oracle is not finite, so
    neither path takes that step.
    """
    runs = islice(irs_iter(a0, b0), 1, None)
    es_powers = islice(explicit_iter(a0, b0), 1, None)
    for p in range(1, p_max + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # checked next
            target = oracle(p)
        if not np.isfinite(target).all():
            return
        run = next(runs)
        err_irs = _rel_err(lambda: implicit_to_explicit(run), target, 1.0)
        err_es = _rel_err(lambda: next(es_powers, None), target, 1.0)
        yield run, err_irs, err_es


def _row(trial, run, kappa_in, **measured):
    """The `TrialRecord` of IRS run ``run`` in ``trial``.

    p is ``run.p``, and kappa_2(A_p) and sigma_n(A_p) come from ``run.a_p``;
    ``measured`` passes ``err_irs``, ``err_es`` and ``s_selected`` through,
    so a column a runner does not measure keeps `TrialRecord`'s sentinel.
    """
    kappa_ap, sigma_n_ap = _kappa_sigma(run.a_p)
    return TrialRecord(trial=trial, p=run.p, kappa_a_input=kappa_in, kappa_ap=kappa_ap,
                       sigma_n_ap=sigma_n_ap, **measured)


def _draw_square_pencil(config, trial):
    """(A, B) at the configured precision, the oracle and d of one squaring trial.

    One random stream per trial draws A, Haar V and d; B = A V diag(d) V^H
    and the oracle maps p to V D^(2^p) V^H.
    """
    rng = rng_from_seed(_trial_seed(config, trial))
    a = gen_ginibre(config.n, rng)
    if config.conditioning == "ill":
        a = make_ill_conditioned(a, config.delta)
    v = gen_haar(config.n, rng)
    if config.experiment == "toy_identity":
        d = np.ones(config.n, dtype=np.complex128)
    else:
        d = sample_spectrum(
            config.spectrum, config.n, rng, config.annulus_r_lo, config.annulus_r_hi
        )
    pencil, oracle = build_test_pencil(a, v, d)
    dtype = dtype_for(config.precision)
    return pencil.a.astype(dtype), pencil.b.astype(dtype), oracle, d


def run_square_experiment(config):
    """Implicit vs. explicit squaring errors per step.

    Per trial: draw A (well or ill conditioned), Haar V, diagonal d per the
    configured spectrum, set B = A V diag(d) V^H, and measure both
    algorithms with `_measured_runs`. A trial stops after either error
    exceeds `EXPLOSION_CUTOFF` (that row is kept; a NaN sentinel never
    counts as exploded), and before the first p whose oracle V D^(2^p) V^H
    overflows, as it does with |d_i| > 1 (for |d_i| = 1.048 at p = 14).
    """
    records = []
    for trial in range(config.trials):
        a0, b0, oracle, d_power = _draw_square_pencil(config, trial)
        kappa_in, _ = _kappa_sigma(a0)
        for run, err_irs, err_es in _measured_runs(a0, b0, oracle, config.p_max):
            d_power = d_power * d_power  # the oracle's own squarings, so finite
            # V is unitary: ||V D^(2^p) V^H||_2 = max_i |d_i^(2^p)|
            target_norm = np.abs(d_power).max()
            row = _row(trial, run, kappa_in, err_irs=float(err_irs / target_norm),
                       err_es=float(err_es / target_norm))
            records.append(row)
            # NaN compares false, so a sentinel never counts as exploded
            if row.err_irs > EXPLOSION_CUTOFF or row.err_es > EXPLOSION_CUTOFF:
                break
    return records


def run_condition_evolution(config):
    """kappa_2(A_p) per implicit step; no error columns."""
    records = []
    for trial in range(config.trials):
        a0, b0, _, _ = _draw_square_pencil(config, trial)
        kappa_in, _ = _kappa_sigma(a0)
        records += [_row(trial, run, kappa_in)
                    for run in islice(irs_iter(a0, b0), 1, config.p_max + 1)]
    return records


def run_expm_experiment(config):
    """Exponential accuracy with explicit vs. implicit final squaring.

    Per trial: M = V diag(d) V^-1 with d from the unit disk and V a complex
    Gaussian whose smallest singular value is shrunk by ``config.delta``
    (delta = 1 leaves it Gaussian). The scaling and Pade stage of `expm` is
    evaluated once, and its pencil (q(X), p(X)) is squared s times by both
    backends (s the 1-norm Pade selection); errors are measured against
    V e^D V^-1, NaN where a backend failed. ``kappa_a_input`` records
    kappa_2(V), ``kappa_ap``/``sigma_n_ap`` the final implicit A_s, and
    ``p`` = ``s_selected`` = s.
    """
    dtype = dtype_for(config.precision)
    records = []
    for trial in range(config.trials):
        rng = rng_from_seed(_trial_seed(config, trial))
        g = gen_ginibre(config.n, rng)
        v = make_ill_conditioned(g, config.delta)
        d = sample_spectrum("disk", config.n, rng)
        v_inv = np.linalg.inv(v)
        m = ((v * d[None, :]) @ v_inv).astype(dtype)
        reference = (v * np.exp(d)[None, :]) @ v_inv
        ref_norm = kernels.spectral_norm(reference)
        kappa_v, _ = _kappa_sigma(v)
        q, p, s = _final_pencil(m)
        err_es = _rel_err(lambda: explicit_squaring(q, p, s), reference, ref_norm)
        run = irs(q, p, s)  # s steps, so run.p == s
        err_irs = _rel_err(lambda: implicit_to_explicit(run), reference, ref_norm)
        records.append(_row(trial, run, kappa_v, err_irs=err_irs, err_es=err_es, s_selected=s))
    return records


@dataclass(frozen=True)
class BoundReportRow:
    """Measured error vs. evaluated theoretical bound at one step count."""

    p: int
    err_irs: float
    bound_irs: float
    err_es: float
    bound_es: float

    # a NaN error (a failed step) gives a NaN ratio, a zero error an infinite one
    @property
    def ratio_irs(self):
        return self.bound_irs / self.err_irs if self.err_irs != 0 else float("inf")

    @property
    def ratio_es(self):
        return self.bound_es / self.err_es if self.err_es != 0 else float("inf")


@dataclass(frozen=True)
class BoundReport:
    """Bound/measured rows, the config the pencil was drawn from, and the loop's kernel calls."""

    rows: tuple
    config: ExperimentConfig
    kernel_calls: kernels.KernelCounts


def run_bound_report(config):
    """Evaluate measured errors against the theoretical forward bounds.

    A single oracle-checkable pencil is drawn as `run_square_experiment`'s
    trial 0 with well-conditioned A and moduli in [0.9, 1.1] (Haar V,
    Gaussian A), and both algorithms run for p = 1 .. p_max,
    stopping before the first p whose oracle is not finite. For each p the
    implicit-path bound (three terms, using the measured sigma_n(A_p),
    ||B_p||_2 and kappa_2(A_p)) and the explicit recursion bound are
    evaluated with mu(n) = n^2 and a unit constant on the kappa^log(n)
    inversion factor; an error is NaN where its conversion raised.
    ``config`` is the configuration the pencil was drawn from, and
    ``kernel_calls`` is the `kernels.count_kernels` tally of the measured
    loop (both paths' steps and conversions), so the report records the run
    it made. The cost identities those counts follow are tested by
    acceptance criterion 12. A ``p_max`` past `conditioning.MP_MAX_P` is
    refused before the pencil is drawn.
    """
    _root_count(config.p_max, "run_bound_report")
    n = config.n
    u = unit_roundoff(config.precision)
    # moduli straddling the unit circle keep the 2^j product terms of both
    # bounds growing, which is the regime the report is meant to exhibit
    drawn = replace(config, experiment="general_square", trials=1, conditioning="well",
                    spectrum="annulus", annulus_r_lo=0.9, annulus_r_hi=1.1)
    a0, b0, oracle, _ = _draw_square_pencil(drawn, 0)

    stack_norm = kernels.spectral_norm(np.vstack([a0, b0]))
    kappa_a, sigma_n_a = _kappa_sigma(a0)
    norm_b = kernels.spectral_norm(b0)
    product_base = kernels.spectral_norm(oracle(0))
    tau = n * n * u
    c_log = math.log(n)
    delta0 = tau * stack_norm * (sigma_n_a + norm_b) / (sigma_n_a - tau * stack_norm)

    rows = []
    # prod_{j<=p} (r^k + (r + delta0)^k) and prod_{j<=p} 2 (1 + tau) r^k, k = 2^(j-1);
    # an infinite one stays so: a further r ** k can raise OverflowError
    product_irs = product_es = 1.0
    with kernels.count_kernels() as kernel_calls:
        for run, err_irs, err_es in _measured_runs(a0, b0, oracle, config.p_max):
            p = run.p
            k = 2 ** (p - 1)
            if not math.isinf(product_irs):
                product_irs *= product_base ** k + (product_base + delta0) ** k
            if not math.isinf(product_es):
                product_es *= 2.0 * (1.0 + tau) * product_base ** k
            kappa_ap, sigma_ap = _kappa_sigma(run.a_p)
            norm_bp = kernels.spectral_norm(run.b_p)
            kap_irs = _kappa(stack_norm, sigma_min_mp(a0, b0, p), a0)
            gamma = 1.0 + 4.0 * math.sqrt(2.0) * (8.0 * math.log(n + 1) + 28.0) * kap_irs
            eps = 14.0 * tau * gamma ** (p - 1)
            t1 = tau * (1.0 + (1.0 + tau) * kappa_ap ** c_log) * (norm_bp / sigma_ap)
            denom = sigma_ap - eps * stack_norm
            t2 = (
                eps * stack_norm * (sigma_ap + norm_bp) / (sigma_ap * denom)
                if denom > 0
                else float("inf")
            )
            t3 = delta0 * product_irs
            bound_irs = t1 + t2 + t3
            bound_es = (
                product_es
                * tau
                * (1.0 + (1.0 + tau) * kappa_a ** c_log)
                * (norm_b / sigma_n_a)
            )
            rows.append(
                BoundReportRow(p=p, err_irs=err_irs, bound_irs=bound_irs,
                               err_es=err_es, bound_es=bound_es)
            )
    return BoundReport(rows=tuple(rows), config=drawn, kernel_calls=kernel_calls)


def run_experiment(config):
    """Dispatch a config to its runner; returns a list of `TrialRecord`."""
    # calls by module-global name, not a dict, so a tracer that re-binds the runners sees them
    if config.experiment in ("toy_identity", "general_square"):
        return run_square_experiment(config)
    if config.experiment == "condition_evolution":
        return run_condition_evolution(config)
    return run_expm_experiment(config)
