"""Implicit and explicit repeated squaring of A^-1 B.

One implicit step factors the stacked block (B_j; -A_j) = Q R and maps

    A_{j+1} = Q_12^H A_j,    B_{j+1} = Q_22^H B_j,

where Q_12 and Q_22 are the top-right and bottom-right n-by-n blocks of the
square Q factor: its trailing n columns, the only ones a step forms. After
p steps, A_p^-1 B_p = (A^-1 B)^(2^p) in exact arithmetic, without ever
forming the inverse. The explicit alternative forms D_0 = A^-1 B and
squares it p times.
"""

import warnings
from dataclasses import dataclass
from itertools import count, islice

import numpy as np

from . import kernels
from .errors import RankDeficientStackWarning, ShapeError
from .precision import _count, _finite, same_precision, square_matrix

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
        if a.shape[0] == 0:
            raise ShapeError("Pencil requires nonempty blocks, got shape (0, 0)")
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
    ``rank_warning`` is `kernels._rank_verdict`'s flag (the zero pencil
    included): it fires exactly where that SVD says so.
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
    fallback = r11 if np.isfinite(r11).all() else stack
    norm_stack, sigma_n, warn, _ = kernels._rank_verdict(r11, fallback=fallback, what="irs_step")
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

    The QR of the 2n-by-n stack forms only the trailing n columns of its Q
    (`kernels.FullQR.complement`), the blocks Q_12 and Q_22 the step reads.

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
    pencil = Pencil(a_j, b_j)
    a_j, b_j = pencil.a, pencil.b
    n = a_j.shape[0]
    stack = np.empty((2 * n, n), dtype=a_j.dtype)
    stack[:n] = b_j
    np.negative(a_j, out=stack[n:])
    qr = kernels.full_qr(stack, "irs_step")
    trace = _stack_diagnostics(stack, qr.R[:n], step_index)
    q_c = _finite(qr.complement, "irs_step", "the Q complement")  # a stack near overflow
    a_next = kernels.matmul(q_c[:n].conj().T, a_j, "irs_step", "A_{j+1}")
    b_next = kernels.matmul(q_c[n:].conj().T, b_j, "irs_step", "B_{j+1}")
    return a_next, b_next, trace


def irs_iter(a, b):
    """Yield the `IRSRun` after p implicit squaring steps, p = 0, 1, 2, ...

    The p = 0 run holds the validated input arrays (not copies) and an empty
    trace. This is the one loop over `irs_step`: each step advances the
    previous run's (A_p, B_p). The generator is unbounded; bound it with
    ``itertools.islice``. The pencil is validated when p = 0 is requested.
    """
    pencil = Pencil(a, b)
    a, b, trace = pencil.a, pencil.b, ()
    for j in count():
        yield IRSRun(a_p=a, b_p=b, trace=trace)
        a, b, entry = irs_step(a, b, step_index=j)
        trace += (entry,)


def irs(a, b, p):
    """Run p implicit squaring steps on the pencil (a, b): the p-th run of `irs_iter`.

    Requires ``p >= 0`` (p = 0 is the input). The result satisfies
    ``a_p^-1 b_p = (a^-1 b)^(2^p)`` up to roundoff, with one `IRSStepTrace`
    per step in ``trace``: bounds on the norm and sigma_n of that step's
    stack, and its rank flag. A rank-deficient stack triggers a
    `RankDeficientStackWarning` and a trace flag; the iteration continues.
    """
    return next(islice(irs_iter(a, b), _count(p, 0, "irs"), None))


def explicit_iter(a, b):
    """Yield D_0^(2^p) for p = 0, 1, 2, ..., where D_0 = a^-1 b is squared once per step.

    The one loop of explicit squaring. Raises `DomainError` when a product
    overflows: D_0^(2^j) is then not representable, and a non-finite result
    would carry no answer. The generator is unbounded; bound it with
    ``itertools.islice``. The pencil is validated and D_0 formed when the
    first power is requested.
    """
    pencil = Pencil(a, b)
    d = kernels.matmul(kernels.invert(pencil.a), pencil.b, "explicit_squaring", "D_0")
    for j in count(1):
        yield d
        d = kernels.matmul(d, d, "explicit_squaring", f"D_0^(2^{j})")


def explicit_squaring(a, b, p):
    """Form D_0 = a^-1 b and square it p times: the p-th value of `explicit_iter`.

    Requires ``p >= 0``; p = 0 returns D_0. Raises `DomainError` when a
    product overflows, as `explicit_iter` does.
    """
    return next(islice(explicit_iter(a, b), _count(p, 0, "explicit_squaring"), None))


def implicit_to_explicit(run):
    """Convert an implicit run to the explicit power ``a_p^-1 b_p``.

    Raises `NumericallySingularError` (carrying the sigma_min estimate) when
    a_p is numerically singular, the regime where an eigenvalue of the
    original pencil inside the unit disk has collapsed sigma_n(A_p). Raises
    `DomainError` when the product overflows, as `explicit_squaring` does.
    """
    return kernels.matmul(kernels.invert(run.a_p), run.b_p, "implicit_to_explicit", "a_p^-1 b_p")


def spectral_projector(run):
    """Approximate spectral projector ``(a_p + b_p)^-1 a_p``.

    Equals ``(I + (a^-1 b)^(2^p))^-1`` in exact arithmetic; as p grows it
    approaches the projector onto the eigenspace of pencil eigenvalues
    (A v = lambda B v) outside the unit disk.

    Raises `NumericallySingularError` when a_p + b_p is numerically
    singular, and `DomainError` when that sum or the product overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # checked next
        total = _finite(run.a_p + run.b_p, "spectral_projector", "a_p + b_p")
    return kernels.matmul(kernels.invert(total), run.a_p, "spectral_projector",
                          "(a_p + b_p)^-1 a_p")
