"""Dense complex linear-algebra primitives.

These are the black-box building blocks everything else is assembled from:
classical matrix multiplication, full (complete) Householder QR with a
real-nonnegative diagonal normalization, SVD, spectral-norm helpers, and
QR-based inversion. All functions are pure and dtype-preserving; precision
(complex64 / complex128) rides on the input arrays.

Call counting
-------------
`count_kernels` opens a scope in which invocations of `matmul`, `full_qr`
and `invert` are tallied. `invert` counts as a single inversion: the QR
factorization and triangular solves it performs internally are not billed
separately, matching the usual cost model T_INV / T_QR / T_MM.
"""

import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NumericallySingularError, ShapeError
from .precision import as_matrix, same_precision, square_matrix, unit_roundoff

__all__ = [
    "FullQR",
    "SVDResult",
    "KernelCounts",
    "count_kernels",
    "matmul",
    "full_qr",
    "svd",
    "spectral_norm",
    "smallest_singular",
    "invert",
]


@dataclass(frozen=True)
class FullQR:
    """Complete QR factorization A = Q R.

    ``Q`` is m-by-m and unitary to roundoff; ``R`` is m-by-n, exactly upper
    triangular (the strict lower triangle holds written zeros, not rounded
    ones) with a real, nonnegative diagonal.
    """

    Q: np.ndarray
    R: np.ndarray


@dataclass(frozen=True)
class SVDResult:
    """Thin SVD A = U diag(s) V^H with ``s`` sorted nonincreasing."""

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray


@dataclass
class KernelCounts:
    """Tally of counted kernel invocations inside a `count_kernels` scope."""

    matmul: int = 0
    qr: int = 0
    inv: int = 0


_local = threading.local()


def _counter_state():
    if not hasattr(_local, "counters"):
        _local.counters = []
        _local.suspended = 0
    return _local


@contextmanager
def count_kernels():
    """Context manager yielding a `KernelCounts` updated by kernel calls."""
    state = _counter_state()
    counts = KernelCounts()
    state.counters.append(counts)
    try:
        yield counts
    finally:
        state.counters.remove(counts)


@contextmanager
def _suspend_counting():
    state = _counter_state()
    state.suspended += 1
    try:
        yield
    finally:
        state.suspended -= 1


def _tally(kind):
    state = _counter_state()
    if state.suspended:
        return
    for counts in state.counters:
        setattr(counts, kind, getattr(counts, kind) + 1)


def matmul(a, b):
    """Classical product ``a @ b`` with shape and precision validation."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    same_precision(a, b, "matmul")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    _tally("matmul")
    return a @ b


def full_qr(a):
    """Complete Householder QR with real-nonnegative diagonal of R.

    The LAPACK factorization leaves diag(R) with arbitrary phases; the
    unitary diagonal phase factor is absorbed into the first n columns of Q
    so that diag(R) is exactly real and >= 0, the strict lower triangle of R
    is written to exact zeros, and Q R still reconstructs ``a``.

    Parameters
    ----------
    a : (m, n) array, m >= n

    Returns
    -------
    FullQR with Q of shape (m, m) and R of shape (m, n).
    """
    a = as_matrix(a, "a")
    m, n = a.shape
    if m < n:
        raise ShapeError(f"full_qr requires m >= n, got shape {a.shape}")
    _tally("qr")
    q, r = _positive_qr(a, "complete")
    return FullQR(Q=q, R=r)


def _positive_qr(a, mode):
    """``np.linalg.qr(a, mode)`` with the phases of diag(R) moved into Q.

    The one place QR phases are normalized: diag(R) becomes exactly real and
    >= 0 (a zero diagonal entry keeps phase 1), the strict lower triangle of
    R is written to exact zeros, and Q R still reconstructs ``a``. Not
    tallied; `full_qr` bills the call.
    """
    n = a.shape[1]
    # numpy returns fresh arrays and writes R's strict lower triangle to
    # zeros itself, so both factors are scaled in place
    q, r = np.linalg.qr(a, mode=mode)
    diag = np.diagonal(r)[:n].copy()
    mags = np.abs(diag)
    safe = np.where(mags == 0, 1.0, mags)
    # a subnormal diagonal entry can give a non-finite phase; invert and
    # irs_step check their factors for non-finite values instead of warning
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.where(mags == 0, np.asarray(1.0, dtype=a.dtype), diag / safe)
        r[:n, :] *= phases.conj()[:, None]
        idx = np.arange(n)
        r[idx, idx] = mags  # bit-exact real diagonal
        q[:, :n] *= phases[None, :]
    return q, r


def _singular_values(a):
    """Singular values of ``a``, nonincreasing, with convergence wrapped."""
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"singular values did not converge: {exc}") from exc


def svd(a):
    """Thin SVD of ``a``.

    Returns U (m, k), singular values (k,) sorted nonincreasing, and V
    (n, k) with columns the right singular vectors, k = min(m, n), so that
    ``a ~= U @ diag(s) @ V.conj().T``.
    """
    a = as_matrix(a, "a")
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"svd did not converge: {exc}") from exc
    return SVDResult(U=u, singular_values=s, V=vh.conj().T)


def _kappa_sigma(a):
    """(kappa_2(a), sigma_min(a)) from one SVD; kappa is inf when sigma_min is 0."""
    sv = _singular_values(a)
    kappa = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
    return kappa, float(sv[-1])


def spectral_norm(a):
    """Largest singular value of ``a``."""
    a = as_matrix(a, "a")
    if min(a.shape) == 0:
        return 0.0
    return float(_singular_values(a)[0])


def smallest_singular(a):
    """Smallest singular value of ``a`` (the min(m, n)-th one)."""
    a = as_matrix(a, "a")
    return float(_singular_values(a)[-1])


#: `_tri_inv` inverts blocks of at most this order with one ``np.linalg.solve``
_TRI_INV_BLOCK = 32


def _tri_inv(r):
    """Inverse of an upper-triangular ``r`` by 2x2 block recursion.

    ``[[R1, R12], [0, R2]]^-1 = [[R1^-1, -R1^-1 R12 R2^-1], [0, R2^-1]]``,
    so above blocks of order `_TRI_INV_BLOCK` the work is matmuls only, the
    stable building block of Demmel, Dumitriu and Holtz (2007). Smaller
    blocks go to ``np.linalg.solve``, whose LU of a triangle is exact (L = I),
    so that is back substitution. Raises ``np.linalg.LinAlgError`` when a
    diagonal entry is exactly zero. Not tallied: it serves diagnostics, not
    the algorithm's cost model.
    """
    n = r.shape[0]
    if n <= _TRI_INV_BLOCK:
        return np.linalg.solve(r, np.eye(n, dtype=r.dtype))
    h = n // 2
    x = np.zeros_like(r)
    x[:h, :h] = _tri_inv(r[:h, :h])
    x[h:, h:] = _tri_inv(r[h:, h:])
    x[:h, h:] = -(x[:h, :h] @ r[:h, h:]) @ x[h:, h:]
    return x


def _screen_passes(r, r_inv):
    """Whether ``||r||_F ||r_inv||_F < 1 / (n^2 u)``, with every value finite.

    ``r_inv`` is r^-1, or any matrix with the same Frobenius norm, such as
    ``R^-1 Q^H``. Since ``sigma_n(r) >= 1 / ||r^-1||_F`` and
    ``||r||_2 <= ||r||_F``, a pass certifies ``sigma_n(r) > n u ||r||_2``
    with a spare factor n that covers the rounding in the computed inverse:
    the rank threshold that `invert` and `irs_step` apply is never met. A
    NaN or inf in either matrix makes its norm non-finite, which fails.
    """
    n = r.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite product fails
        product = np.linalg.norm(r) * np.linalg.norm(r_inv)
    return bool(product < 1.0 / (n * n * unit_roundoff(r)))


def invert(a):
    """Inverse of a square matrix via complete QR and a triangular solve.

    A single QR-based code path is used so the stability story matches the
    rest of the library. A matrix with ``sigma_min < n * u * ||a||_2`` is
    treated as numerically singular, and so is one whose QR factors or
    inverse come out non-finite (an ``a`` scaled into the subnormal range).

    The solve ``R X = Q^H`` goes through numpy's ``?gesv``: partial-pivot LU
    of an upper-triangular R with a nonzero diagonal is exact (L = I, U = R),
    so this is the back substitution itself, run on numpy's one OpenBLAS
    pool rather than waking scipy's second one.

    The singularity guard needs an SVD of ``a`` only near its threshold. The
    factors screen it first: ``kappa_2(a) = kappa_2(R)`` and
    ``||X||_F = ||R^-1||_F``, so finite factors and X that pass
    `_screen_passes` (``||R||_F ||X||_F < 1 / (n^2 u)``, a factor n inside
    the guard's ``1 / (n u)``) are returned without one. Any other input runs
    the exact guard, so the error fires on the same inputs either way.
    """
    a = square_matrix(a, "a")
    n = a.shape[0]
    u = unit_roundoff(a)
    if n == 0:
        raise ShapeError("invert requires a nonempty matrix, got shape (0, 0)")
    _tally("inv")
    with _suspend_counting():
        qr = full_qr(a)
    with np.errstate(all="ignore"):  # non-finite values are checked, not warned about
        try:
            x = np.linalg.solve(qr.R, qr.Q.conj().T)
        except np.linalg.LinAlgError:  # an exactly singular R
            x = None
        finite = (
            x is not None
            and np.isfinite(x).all()
            and np.isfinite(qr.R).all()
            and np.isfinite(qr.Q).all()
        )
        if finite and _screen_passes(qr.R, x):
            return np.ascontiguousarray(x)
    sv = _singular_values(a)
    if sv[-1] < n * u * sv[0] or sv[-1] == 0.0:
        raise NumericallySingularError("invert: matrix is numerically singular", sv[-1])
    if not finite:
        raise NumericallySingularError("invert: QR factors or inverse are not finite", sv[-1])
    return np.ascontiguousarray(x)
