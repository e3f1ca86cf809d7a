"""Implicit and explicit repeated squaring of A^-1 B.

One implicit step factors the stacked block (B_j; -A_j) = Q R and maps

    A_{j+1} = Q_12^H A_j,    B_{j+1} = Q_22^H B_j,

where Q_12 and Q_22 are the top-right and bottom-right n-by-n blocks of the
square Q factor. After p steps, A_p^-1 B_p = (A^-1 B)^(2^p) in exact
arithmetic, without ever forming the inverse. The explicit alternative forms
D_0 = A^-1 B and squares it p times.
"""

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError, RankDeficientStackWarning, ShapeError
from .precision import same_precision, square_matrix, unit_roundoff

__all__ = [
    "Pencil",
    "IRSStepTrace",
    "IRSRun",
    "irs_step",
    "irs_iter",
    "irs",
    "explicit_squaring",
    "implicit_to_explicit",
    "spectral_projector",
]


@dataclass(frozen=True)
class Pencil:
    """Square matrix pair (A, B) of matching size and precision."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = square_matrix(self.a, "A")
        b = square_matrix(self.b, "B")
        same_precision(a, b, "Pencil")
        if a.shape != b.shape:
            raise ShapeError(f"pencil blocks differ in size: {a.shape} vs {b.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self):
        return self.a.shape[0]


@dataclass(frozen=True)
class IRSStepTrace:
    """Per-step diagnostics, measured on the step's inputs (A_j, B_j).

    ``norm_stack`` is ||(A_j; B_j)||_2, ``sigma_n_stack`` the n-th singular
    value of the factored stack (B_j; -A_j), and ``kappa_a`` / ``kappa_b``
    the condition numbers of the blocks (NaN in fast mode). The stack's
    singular values are taken from the step's own triangular factor R_11,
    which has the same ones (the stack's SVD only when R is non-finite).
    ``rank_warning`` flags sigma_n_stack < n * u * norm_stack, and a zero
    sigma_n_stack (the zero pencil included).
    """

    step_index: int
    norm_stack: float
    sigma_n_stack: float
    kappa_a: float
    kappa_b: float
    rank_warning: bool = False


@dataclass(frozen=True)
class IRSRun:
    """Outputs of p implicit squaring steps plus the accumulated trace."""

    a_p: np.ndarray
    b_p: np.ndarray
    trace: tuple
    p: int

    def __post_init__(self):
        if len(self.trace) != self.p:
            raise ShapeError(f"trace length {len(self.trace)} != p = {self.p}")


def _stack_diagnostics(stack, r11, a_j, b_j, step_index, fast):
    # sigma(stack) = sigma(R_11), and R_11 is n x n where the stack is 2n x n;
    # a stack scaled into the subnormal range can leave R non-finite
    sv = np.linalg.svd(r11 if np.isfinite(r11).all() else stack, compute_uv=False)
    norm_stack = float(sv[0])
    sigma_n = float(sv[-1])
    n = a_j.shape[0]
    warn = sigma_n < n * unit_roundoff(a_j) * norm_stack or sigma_n == 0.0
    if warn:
        warnings.warn(
            f"implicit squaring step {step_index}: stacked block is numerically "
            f"rank deficient (sigma_n = {sigma_n:.3e}); continuing",
            RankDeficientStackWarning,
            stacklevel=3,
        )
    if fast:
        kappa_a = kappa_b = float("nan")
    else:
        kappa_a, _ = kernels._kappa_sigma(a_j)
        kappa_b, _ = kernels._kappa_sigma(b_j)
    return IRSStepTrace(
        step_index=step_index,
        norm_stack=norm_stack,
        sigma_n_stack=sigma_n,
        kappa_a=kappa_a,
        kappa_b=kappa_b,
        rank_warning=warn,
    )


def irs_step(a_j, b_j, step_index=0, fast=False):
    """One implicit squaring step.

    Parameters
    ----------
    a_j, b_j : (n, n) arrays of matching precision
    step_index : label recorded in the returned trace entry
    fast : skip the two per-block condition-number SVDs

    Returns
    -------
    (a_next, b_next, trace) where ``a_next^-1 b_next = (a_j^-1 b_j)^2``
    in exact arithmetic.
    """
    a_j = square_matrix(a_j, "A_j")
    b_j = square_matrix(b_j, "B_j")
    same_precision(a_j, b_j, "irs_step")
    if a_j.shape != b_j.shape:
        raise ShapeError(f"irs_step: blocks differ in size: {a_j.shape} vs {b_j.shape}")
    n = a_j.shape[0]
    stack = np.vstack([b_j, -a_j])
    qr = kernels.full_qr(stack)
    trace = _stack_diagnostics(stack, qr.R[:n], a_j, b_j, step_index, fast)
    q12 = qr.Q[:n, n:]
    q22 = qr.Q[n:, n:]
    a_next = kernels.matmul(q12.conj().T, a_j)
    b_next = kernels.matmul(q22.conj().T, b_j)
    return a_next, b_next, trace


def irs_iter(a, b, fast=False):
    """Yield the `IRSRun` after each implicit squaring step, p = 1, 2, ...

    This is the one loop over `irs_step`: each step advances the previous
    run's (A_p, B_p), never recomputing from scratch. The generator is
    unbounded; bound it with ``itertools.islice``. The pencil is validated
    when the first run is requested.
    """
    pencil = Pencil(a, b)
    a_j, b_j = pencil.a, pencil.b
    trace = ()
    for j in itertools.count():
        a_j, b_j, entry = irs_step(a_j, b_j, step_index=j, fast=fast)
        trace += (entry,)
        yield IRSRun(a_p=a_j, b_p=b_j, trace=trace, p=j + 1)


def irs(a, b, p, fast=False):
    """Run p implicit squaring steps on the pencil (a, b): the p-th run of `irs_iter`.

    Requires ``p >= 1``. The result satisfies
    ``a_p^-1 b_p = (a^-1 b)^(2^p)`` up to roundoff, with per-step
    diagnostics in ``trace`` (one entry per step, measured on that step's
    inputs). A rank-deficient stack triggers a `RankDeficientStackWarning`
    and a trace flag; the iteration continues.
    """
    if p < 1:
        raise ShapeError(f"irs requires p >= 1, got {p}")
    return next(itertools.islice(irs_iter(a, b, fast=fast), p - 1, None))


def explicit_squaring(a, b, p):
    """Form D_0 = a^-1 b and square it p times (p = 0 returns D_0).

    Raises `DomainError` when a product overflows: D_0^(2^j) is then not
    representable, and a non-finite result would carry no answer.
    """
    if p < 0:
        raise ShapeError(f"explicit_squaring requires p >= 0, got {p}")
    pencil = Pencil(a, b)
    inverse = kernels.invert(pencil.a)
    with np.errstate(over="ignore", invalid="ignore"):  # each power is checked
        d = kernels.matmul(inverse, pencil.b)
        for j in range(p + 1):
            if not np.isfinite(d).all():
                raise DomainError(f"explicit_squaring: D_0^(2^{j}) overflowed")
            if j < p:
                d = kernels.matmul(d, d)
    return d


def implicit_to_explicit(run):
    """Convert an implicit run to the explicit power ``a_p^-1 b_p``.

    Raises `NumericallySingularError` (carrying the sigma_min estimate) when
    a_p is numerically singular, the regime where an eigenvalue of the
    original pencil inside the unit disk has collapsed sigma_n(A_p).
    """
    return kernels.matmul(kernels.invert(run.a_p), run.b_p)


def spectral_projector(run):
    """Approximate spectral projector ``(a_p + b_p)^-1 a_p``.

    Equals ``(I + (a^-1 b)^(2^p))^-1`` in exact arithmetic; as p grows it
    approaches the projector onto the eigenspace of pencil eigenvalues
    (A v = lambda B v) outside the unit disk.
    """
    return kernels.matmul(kernels.invert(run.a_p + run.b_p), run.a_p)
