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
    "explicit_iter",
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


@dataclass(frozen=True)
class IRSStepTrace:
    """What one step measured on its stack (B_j; -A_j): certified bounds.

    The step's triangular factor R_11 has the stack's singular values.
    ``norm_stack_ub = ||R_11||_F`` bounds ||(A_j; B_j)||_2 from above and
    ``sigma_n_lb = 1 / ||R_11^-1||_F`` bounds the stack's n-th singular value
    from below, each within a factor sqrt(n) of the exact value, from a
    matmul-only inverse of R_11. When these bounds cannot rule out the rank
    flag, an exact SVD of R_11 (of the stack when R is non-finite) decides
    it, and the two fields hold its exact sigma_1 and sigma_n.
    ``rank_warning`` flags sigma_n < n * u * ||stack||_2, and a zero sigma_n
    (the zero pencil included): it fires exactly where that SVD says so.
    """

    step_index: int
    norm_stack_ub: float
    sigma_n_lb: float
    rank_warning: bool = False


@dataclass(frozen=True)
class IRSRun:
    """Outputs of p implicit squaring steps plus the accumulated trace."""

    a_p: np.ndarray
    b_p: np.ndarray
    trace: tuple

    @property
    def p(self):  # one trace entry per step
        return len(self.trace)


def _stack_diagnostics(stack, r11, step_index):
    # sigma(stack) = sigma(R_11), and R_11 is n x n where the stack is 2n x n;
    # a stack scaled into the subnormal range can leave R non-finite
    finite = np.isfinite(r11).all()
    if finite:
        with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the screen
            try:
                r_inv = kernels._tri_inv(r11)
            except np.linalg.LinAlgError:  # an exactly zero diagonal entry
                r_inv = None
        if r_inv is not None and kernels._screen_passes(r11, r_inv):
            return IRSStepTrace(
                step_index=step_index,
                norm_stack_ub=float(np.linalg.norm(r11)),
                sigma_n_lb=float(1.0 / np.linalg.norm(r_inv)),
            )
    # the screen cannot decide: the exact singular values do
    sv = np.linalg.svd(r11 if finite else stack, compute_uv=False)
    norm_stack, sigma_n = float(sv[0]), float(sv[-1])
    n = r11.shape[0]
    warn = sigma_n < n * unit_roundoff(stack) * norm_stack or sigma_n == 0.0
    if warn:
        warnings.warn(
            f"implicit squaring step {step_index}: stacked block is numerically "
            f"rank deficient (sigma_n = {sigma_n:.3e}); continuing",
            RankDeficientStackWarning,
            stacklevel=3,
        )
    return IRSStepTrace(
        step_index=step_index,
        norm_stack_ub=norm_stack,
        sigma_n_lb=sigma_n,
        rank_warning=warn,
    )


def irs_step(a_j, b_j, step_index=0):
    """One implicit squaring step: one QR and two matmuls, plus its diagnostics.

    Parameters
    ----------
    a_j, b_j : (n, n) arrays of matching precision
    step_index : label recorded in the returned trace entry

    Returns
    -------
    (a_next, b_next, trace) where ``a_next^-1 b_next = (a_j^-1 b_j)^2``
    in exact arithmetic; ``trace`` is the step's `IRSStepTrace`: bounds on
    its stack norm and sigma_n, and its rank flag, from the n-by-n R_11 of
    the QR. A block-recursive (matmul-only) inverse of R_11 certifies a
    full-rank stack; only a stack that screen cannot decide takes one SVD of
    R_11, so the flag and `RankDeficientStackWarning` fire exactly where
    that SVD says the stack is rank deficient.
    """
    a_j = square_matrix(a_j, "A_j")
    b_j = square_matrix(b_j, "B_j")
    same_precision(a_j, b_j, "irs_step")
    if a_j.shape != b_j.shape:
        raise ShapeError(f"irs_step: blocks differ in size: {a_j.shape} vs {b_j.shape}")
    n = a_j.shape[0]
    stack = np.vstack([b_j, -a_j])
    qr = kernels.full_qr(stack)
    trace = _stack_diagnostics(stack, qr.R[:n], step_index)
    q12 = qr.Q[:n, n:]
    q22 = qr.Q[n:, n:]
    a_next = kernels.matmul(q12.conj().T, a_j)
    b_next = kernels.matmul(q22.conj().T, b_j)
    return a_next, b_next, trace


def irs_iter(a, b):
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
        a_j, b_j, entry = irs_step(a_j, b_j, step_index=j)
        trace += (entry,)
        yield IRSRun(a_p=a_j, b_p=b_j, trace=trace)


def irs(a, b, p):
    """Run p implicit squaring steps on the pencil (a, b): the p-th run of `irs_iter`.

    Requires ``p >= 1``. The result satisfies
    ``a_p^-1 b_p = (a^-1 b)^(2^p)`` up to roundoff, with one `IRSStepTrace`
    per step in ``trace``: bounds on the norm and sigma_n of that step's
    stack, and its rank flag. A rank-deficient stack triggers a
    `RankDeficientStackWarning` and a trace flag; the iteration continues.
    """
    if p < 1:
        raise ShapeError(f"irs requires p >= 1, got {p}")
    return next(itertools.islice(irs_iter(a, b), p - 1, None))


def explicit_iter(a, b):
    """Yield D_0^(2^p) for p = 1, 2, ..., where D_0 = a^-1 b is squared once per step.

    The one loop of explicit squaring. Raises `DomainError` when a product
    overflows: D_0^(2^j) is then not representable, and a non-finite result
    would carry no answer. The generator is unbounded; bound it with
    ``itertools.islice``. The pencil is validated and D_0 formed when the
    first power is requested.
    """
    d = _explicit_d0(a, b)
    for j in itertools.count(1):
        d = _product(d, d, f"explicit_squaring: D_0^(2^{j})")
        yield d


def explicit_squaring(a, b, p):
    """Form D_0 = a^-1 b and square it p times: the p-th value of `explicit_iter`.

    p = 0 returns D_0. Raises `DomainError` when a product overflows, as
    `explicit_iter` does.
    """
    if p < 0:
        raise ShapeError(f"explicit_squaring requires p >= 0, got {p}")
    if p == 0:
        return _explicit_d0(a, b)
    return next(itertools.islice(explicit_iter(a, b), p - 1, None))


def _explicit_d0(a, b):
    pencil = Pencil(a, b)
    return _product(kernels.invert(pencil.a), pencil.b, "explicit_squaring: D_0")


def _product(x, y, name):
    """``x @ y``, raising `DomainError` when it overflows to a non-finite matrix."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked next
        out = kernels.matmul(x, y)
    if not np.isfinite(out).all():
        raise DomainError(f"{name} overflowed")
    return out


def implicit_to_explicit(run):
    """Convert an implicit run to the explicit power ``a_p^-1 b_p``.

    Raises `NumericallySingularError` (carrying the sigma_min estimate) when
    a_p is numerically singular, the regime where an eigenvalue of the
    original pencil inside the unit disk has collapsed sigma_n(A_p). Raises
    `DomainError` when the product overflows, as `explicit_squaring` does.
    """
    return _product(kernels.invert(run.a_p), run.b_p, "implicit_to_explicit: a_p^-1 b_p")


def spectral_projector(run):
    """Approximate spectral projector ``(a_p + b_p)^-1 a_p``.

    Equals ``(I + (a^-1 b)^(2^p))^-1`` in exact arithmetic; as p grows it
    approaches the projector onto the eigenspace of pencil eigenvalues
    (A v = lambda B v) outside the unit disk.
    """
    return kernels.matmul(kernels.invert(run.a_p + run.b_p), run.a_p)
