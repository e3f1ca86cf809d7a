"""Dense complex linear-algebra primitives.

These are the black-box building blocks everything else is assembled from:
classical matrix multiplication, full (complete) Householder QR with a
real-nonnegative diagonal normalization, SVD as numpy's ``(u, s, vh)``,
spectral-norm helpers, and QR-based inversion. All functions are pure and
dtype-preserving; precision (complex64 / complex128) rides on the input
arrays. `matmul` checks each product once, where it is made: an overflow
is a `DomainError` naming its caller, as is `full_qr`'s.

`full_qr` keeps LAPACK's Householder vectors for every shape and forms its
Q, or only the trailing columns of Q, by compact WY products when they are
read.

Call counting
-------------
`count_kernels` opens a scope, kept in its thread's one list of open scopes,
in which invocations of `matmul`, `full_qr` and `invert` are tallied. `invert`
counts as a single inversion: it factors through the unbilled `_positive_qr`,
as `qrperturb` does, matching the usual cost model T_INV / T_QR / T_MM.
"""

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, DomainError, NumericallySingularError, ShapeError
from .precision import _finite, as_matrix, same_precision, square_matrix, unit_roundoff

__all__ = [
    "FullQR",
    "KernelCounts",
    "count_kernels",
    "matmul",
    "full_qr",
    "svd",
    "spectral_norm",
    "smallest_singular",
    "invert",
]


#: order of the diagonal blocks `_tri_inv` inverts with one ``np.linalg.solve``,
#: and of the reflector blocks `FullQR` applies as one compact WY product each
_BLOCK = 32


class FullQR:
    """Complete QR factorization A = Q R of an m-by-n ``A``, m >= n.

    ``R`` is m-by-n, exactly upper triangular (the strict lower triangle
    holds written zeros, not rounded ones) with a real, nonnegative
    diagonal. ``Q`` is m-by-m and unitary to roundoff. ``complement`` is
    ``Q[:, n:]``, the m - n trailing columns, which span the orthogonal
    complement of range(A) when A has full column rank.

    It holds LAPACK's Householder vectors, in complex128 for either
    precision, and forms ``Q`` and ``complement`` on first read, each by
    compact WY products (`_apply_reflectors`) rounded once to R's dtype;
    reading only ``complement`` never forms the leading n columns.
    ``Q[:, n:]`` is bit-identical to ``complement``.
    """

    def __init__(self, R, householder):
        self.R = R
        # (V, tau, phases): unit lower-trapezoidal V, LAPACK's tau, and the
        # phases removed from diag(R), owed to Q's leading columns
        self._householder = householder

    @cached_property
    def Q(self):
        v, tau, phases = self._householder
        m, n = v.shape
        lead = _apply_reflectors(v, tau, np.eye(m, n, dtype=v.dtype))
        lead = lead.astype(self.R.dtype, copy=False)
        with np.errstate(over="ignore", invalid="ignore"):  # as in _positive_qr
            lead *= phases[None, :]
        return np.hstack([lead, self.complement])

    @cached_property
    def complement(self):
        v, tau, _ = self._householder
        m, n = v.shape
        x = _apply_reflectors(v, tau, np.eye(m, m - n, -n, dtype=v.dtype))
        return x.astype(self.R.dtype, copy=False)


@dataclass
class KernelCounts:
    """Tally of counted kernel invocations inside a `count_kernels` scope."""

    matmul: int = 0
    qr: int = 0
    inv: int = 0


class _Scopes(threading.local):
    """Each thread's open `count_kernels` scopes, outermost first."""

    def __init__(self):
        self.counters = []


_scopes = _Scopes()


@contextmanager
def count_kernels():
    """Context manager yielding a `KernelCounts` updated by kernel calls."""
    counts = KernelCounts()
    _scopes.counters.append(counts)
    try:
        yield counts
    finally:  # by identity: equal KernelCounts values may belong to an outer scope
        _scopes.counters = [c for c in _scopes.counters if c is not counts]


def _tally(kind):
    for counts in _scopes.counters:
        setattr(counts, kind, getattr(counts, kind) + 1)


def matmul(a, b, name="matmul", what="the product"):
    """Classical product ``a @ b`` with shape and precision validation.

    An overflow raises `_finite`'s `DomainError` naming ``name`` and ``what``.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    same_precision(a, b, "matmul")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    _tally("matmul")
    with np.errstate(over="ignore", invalid="ignore"):  # checked next
        return _finite(a @ b, name, what)


def full_qr(a, name="full_qr"):
    """Complete Householder QR with real-nonnegative diagonal of R.

    The LAPACK factorization leaves diag(R) with arbitrary phases; the
    unitary diagonal phase factor is absorbed into the first n columns of Q
    so that diag(R) is exactly real and >= 0, the strict lower triangle of R
    is written to exact zeros, and Q R still reconstructs ``a``.

    Every ``a`` is factored by one ``np.linalg.qr(..., mode="raw")`` call
    (``?geqrf`` alone), and its Q is formed from the Householder vectors
    only when read: a caller that needs only the trailing m - n columns
    reads ``complement`` and never pays for the leading n. Forming Q is part
    of the one tallied QR, so it uses plain ``@``, not `matmul`. This is the
    billed QR of the cost model; `_positive_qr` is the unbilled one. A
    complex64 R past the float32 range raises `DomainError` naming ``name``;
    a complex128 R or complement past it comes back non-finite, for `irs_step` to refuse.

    Parameters
    ----------
    a : (m, n) array, m >= n

    Returns
    -------
    FullQR with Q of shape (m, m), complement of shape (m, m - n) and R of
    shape (m, n).
    """
    a = as_matrix(a, "a")
    m, n = a.shape
    if m < n:
        raise ShapeError(f"full_qr requires m >= n, got shape {a.shape}")
    _tally("qr")
    # numpy factors complex64 input in complex128 as well; keeping those
    # reflectors unrounded rounds Q once, as LAPACK's complete Q is rounded
    h, tau = np.linalg.qr(a.astype(np.complex128, copy=False), mode="raw")
    v = h.T  # ?geqrf's output: R on and above the diagonal, V below it
    r = np.triu(v)
    if r.dtype != a.dtype:  # complex64: R past the float32 range would cast to inf
        with np.errstate(over="ignore"):  # checked next
            r = r.astype(a.dtype)
        if not np.isfinite(r).all():
            raise DomainError(f"{name}: a result overflows {a.dtype}")
    phases = _positive_diagonal(r)
    # V is built in place: rows n: lie wholly below the diagonal already
    v[:n] = np.tril(v[:n], -1)
    np.fill_diagonal(v, 1)
    return FullQR(r, householder=(v, tau, phases))


def _positive_qr(a):
    """Reduced ``np.linalg.qr(a)`` with the phases of diag(R) moved into Q.

    diag(R) becomes exactly real and >= 0, the strict lower triangle of R is
    written to exact zeros, and Q R still reconstructs ``a``. For a square
    ``a`` numpy's reduced Q is LAPACK's complete one. Not tallied: it serves
    `invert` (which bills one inversion), `gen_haar` and `qrperturb`, none
    of which is a QR of the cost model.
    """
    n = a.shape[1]
    # numpy returns fresh arrays and writes R's strict lower triangle to
    # zeros itself, so both factors are scaled in place
    q, r = np.linalg.qr(a)
    phases = _positive_diagonal(r)
    with np.errstate(over="ignore", invalid="ignore"):
        q[:, :n] *= phases[None, :]
    return q, r


def _positive_diagonal(r):
    """Make diag(r) exactly real and >= 0 in place; return the phases removed.

    The one place QR phases are normalized: row i of the m-by-n ``r`` is
    scaled by conj(phase_i) (a zero diagonal entry keeps phase 1), so the
    caller multiplies Q's column i by phase_i to keep Q R unchanged.
    """
    n = r.shape[1]
    diag = np.diagonal(r)[:n].copy()
    mags = np.abs(diag)
    safe = np.where(mags == 0, 1.0, mags)
    # a subnormal diagonal entry can give a non-finite phase; invert and
    # irs_step check their factors for non-finite values instead of warning
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.where(mags == 0, np.asarray(1.0, dtype=r.dtype), diag / safe)
        r[:n, :] *= phases.conj()[:, None]
    idx = np.arange(n)
    r[idx, idx] = mags  # bit-exact real diagonal
    return phases


def _apply_reflectors(v, tau, x):
    """``Q x`` in place of ``x``, for LAPACK's Q = H_1 ... H_n, H_i = I - tau_i v_i v_i^H.

    The reflectors are applied last block first, `_BLOCK` at a time, each
    block as one compact WY product ``H_s ... H_e = I - V T V^H`` (Schreiber
    and Van Loan, 1989): three plain matmuls on the rows s: that the block
    touches, with ``T = (I + diag(tau) striu(V^H V))^-1 diag(tau)`` (Joffrain
    et al., 2006) from `_tri_inv`; a zero tau_i (H_i = I) gives a zero column
    of T. Blocks, rather than one n-wide T, keep IRS's errors lowest: at
    n = 256 the complement's ``||Qc^H Qc - I||`` is 12u blocked, 15u for
    one n-wide T and 27u for LAPACK's complete Q. A
    non-finite ``v`` or ``tau`` (a stack scaled near underflow or overflow)
    gives a non-finite result without numpy warnings or exceptions; its
    callers check for that.
    """
    n = v.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        for s in reversed(range(0, n, _BLOCK)):
            vb, tb = v[s:, s:s + _BLOCK], tau[s:s + _BLOCK]
            vh = vb.conj().T
            unit = np.eye(len(tb), dtype=v.dtype) + tb[:, None] * np.triu(vh @ vb, 1)
            try:
                t = _tri_inv(unit) * tb[None, :]
            except np.linalg.LinAlgError:  # only a non-finite block, never a zero pivot
                t = np.full_like(unit, np.nan)
            x[s:] -= vb @ (t @ (vh @ x[s:]))
    return x


def _converged(what, routine, *args, **kwargs):
    """``routine(*args, **kwargs)``, its ``LinAlgError`` raised as `ConvergenceError`.

    numpy runs complex64 in complex128 and casts back: a result past the
    float32 range raises `DomainError` naming ``what``, not numpy's overflow.
    """
    try:
        with np.errstate(over="ignore"):  # the cast back; checked next
            out = routine(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"{what} did not converge: {exc}") from exc
    if not np.isfinite(out[1] if isinstance(out, tuple) else out).all():
        raise DomainError(f"{what}: a result overflows {args[0].dtype}")
    return out


def _singular_values(a, what="singular values"):
    """Singular values of ``a``, or of each matrix in a stack, nonincreasing; errors name what."""
    return _converged(what, np.linalg.svd, a, compute_uv=False)


def _rank_deficient(sigma_n, sigma_1, like):
    """The library's one numerical-rank verdict: ``sigma_n < n u sigma_1``, or 0.

    n is the column count and u the unit roundoff of the matrix ``like``; an
    array of sigma_n gets one verdict per entry. The zero clause catches the
    zero matrix, which the strict comparison misses. `_rank_verdict`
    certifies a False verdict without an SVD.
    """
    verdict = (sigma_n < like.shape[1] * unit_roundoff(like) * sigma_1) | (sigma_n == 0)
    return verdict if np.ndim(verdict) else bool(verdict)


def svd(a):
    """Thin SVD of ``a``: numpy's ``(u, s, vh)``, unpacked by position.

    u is (m, k), s (k,) sorted nonincreasing and vh (k, n), k = min(m, n),
    so that ``a ~= u @ diag(s) @ vh``.
    """
    return _converged("svd", np.linalg.svd, as_matrix(a, "a"), full_matrices=False)


def _kappa_sigma(a):
    """(kappa_2(a), sigma_min(a)) from one SVD; kappa is inf when sigma_min is 0."""
    sv = _singular_values(a)
    kappa = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
    return kappa, float(sv[-1])


def _pow2_scaled(a):
    """``(a * 2^-e, e)``, e the ``math.frexp`` exponent of ``a``'s largest real
    or imaginary part (0 for an empty or all-zero ``a``).

    Every entry of the scaled matrix has modulus below sqrt(2), so its norms
    cannot overflow, and the scaling is exact for every entry that stays in
    the normal range. No 2^-e is formed: it can overflow.
    """
    if a.size == 0:
        return a, 0
    parts = np.ascontiguousarray(a).view(a.real.dtype)  # real and imaginary parts
    _, e = math.frexp(float(np.abs(parts).max()))
    return np.ldexp(parts, -e).view(a.dtype), e


def _scaled_back(x, e, name):
    """``x 2^e``, or `DomainError` naming the caller ``name`` when that overflows."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        raise DomainError(f"{name}: the result {x!r} * 2^{e} overflows") from None


def spectral_norm(a):
    """Largest singular value of ``a``, from the eigenvalues of a Gram matrix.

    ``a`` is scaled by `_pow2_scaled`, so the Gram matrix cannot overflow.
    The Gram matrix of the smaller side (a^H a or a a^H, plain ``@``, in
    ``a``'s precision) has sigma_1^2 as its largest eigenvalue, and by
    Weyl's inequality ``np.linalg.eigvalsh`` returns it with an error of
    order n u sigma_1^2 (Golub and Van Loan, *Matrix Computations*, section
    8.1): sigma_1 comes back within about n u, as from an SVD, in about half
    the SVD's time at n = 128. The same error is only relative to
    sigma_1^2, so the smallest singular value (`smallest_singular`,
    `_kappa_sigma`) keeps the SVD. Not tallied. An empty or all-zero ``a``
    has norm 0; a norm above the float range raises `DomainError`.
    """
    a = as_matrix(a, "a")
    if min(a.shape) == 0:
        return 0.0
    x, e = _pow2_scaled(a)
    gram = x.conj().T @ x if x.shape[0] >= x.shape[1] else x @ x.conj().T
    lam = float(_converged("eigenvalues", np.linalg.eigvalsh, gram)[-1])
    return _scaled_back(math.sqrt(max(lam, 0.0)), e, "spectral_norm")


def _unitarity_defect(q, tol):
    """``||Q^H Q - I||_2`` of a square ``q``, or a certified bound on it at most ``tol``.

    The screen: D = Q^H Q - I is formed once, and since ``||D||_2 <=
    ||D||_F``, ``||D||_F <= tol`` certifies ``||D||_2 <= tol``; that
    Frobenius norm is returned without `spectral_norm`'s Gram matrix and
    eigenvalues. Any other ``q`` gets the exact ``spectral_norm(D)``, so a
    ``defect <= tol`` verdict is the exact check's on every input away from
    a rounding of ``tol`` (the pattern of `_rank_verdict`).
    """
    d = q.conj().T @ q - np.eye(q.shape[0], dtype=q.dtype)
    frob = float(np.linalg.norm(d))
    if frob <= tol:
        return frob
    return spectral_norm(d)


def smallest_singular(a):
    """Smallest singular value of ``a`` (the min(m, n)-th one)."""
    a = as_matrix(a, "a")
    if min(a.shape) == 0:
        raise ShapeError(f"smallest_singular requires a nonempty matrix, got shape {a.shape}")
    return float(_singular_values(a, "smallest_singular")[-1])


def _tri_inv(r):
    """Inverse of an upper-triangular ``r`` by 2x2 block recursion.

    ``[[R1, R12], [0, R2]]^-1 = [[R1^-1, -R1^-1 R12 R2^-1], [0, R2^-1]]``,
    so above blocks of order `_BLOCK` the work is matmuls only, the
    stable building block of Demmel, Dumitriu and Holtz (2007). Smaller
    blocks go to ``np.linalg.solve``, whose LU of a triangle is exact (L = I),
    so that is back substitution. All runs in complex128, as numpy's solve
    does. Raises ``np.linalg.LinAlgError`` when a diagonal entry is exactly
    zero, and for some non-finite ``r``. Not tallied: it serves the rank
    screen (`_rank_verdict`) and the WY factors (`_apply_reflectors`) of a QR.
    """
    r = r.astype(np.complex128, copy=False)
    n = r.shape[0]
    if n <= _BLOCK:
        return np.linalg.solve(r, np.eye(n, dtype=r.dtype))
    h = n // 2
    x = np.zeros_like(r)
    x[:h, :h] = _tri_inv(r[:h, :h])
    x[h:, h:] = _tri_inv(r[h:, h:])
    x[:h, h:] = -(x[:h, :h] @ r[:h, h:]) @ x[h:, h:]
    return x


def _rank_verdict(r, inverse=_tri_inv, *, fallback, what):
    """The one screen-then-SVD rank check: ``(sigma_1, sigma_n, deficient, r_inv)`` of ``r``.

    The screen: ``r_inv = inverse(r)`` (default `_tri_inv`) is r^-1, or any
    matrix with the same Frobenius norm, such as ``R^-1 Q^H``, formed with
    numpy's warnings off; a ``LinAlgError`` from it, or ``inverse=None``,
    leaves None. As ``kappa_2(r) <= ||r||_F ||r^-1||_F``, ``||r||_F ||r_inv||_F
    < 1 / (s n u)``, n the column count, certifies ``sigma_n(r) > n u ||r||_2``
    if s covers the rounding. Both inverses are substitutions in complex128
    (u_d = 2^-53; invert's X is then rounded to r's dtype), with residual at
    most ``c n u_d ||r||_F ||r_inv||_F < c u_d / (s u)`` (Higham, *ASNA*, 2nd
    ed., sections 8.1, 14.2), which bounds ``||r^-1||_F / ||r_inv||_F``. So s =
    n for complex128, and s = 2 for complex64 (u_d / u = 2^-29) while the
    float32 ||r||_F errs by at most n^2 u <= 1; s = n cannot pass from n = 256,
    as ``||r||_F ||r^-1||_F >= n``. `_tri_inv`'s matmul levels are taken to
    keep the bound. A pass returns ``(||r||_F, 1 / ||r_inv||_F, False, r_inv)``
    without an SVD; a NaN or inf in either matrix fails it. Otherwise the
    exact singular values of ``fallback`` (``r``, or the matrix r was factored
    from) come with `_rank_deficient`'s verdict; an SVD failure names ``what``.
    """
    r_inv = None
    with np.errstate(all="ignore"):  # a non-finite inverse or product fails the screen
        try:
            if inverse is not None:
                r_inv = inverse(r)
        except np.linalg.LinAlgError:  # an exactly zero pivot, or a non-finite r
            pass
        if r_inv is not None:
            norm_r, norm_inv, n = np.linalg.norm(r), np.linalg.norm(r_inv), r.shape[1]
            spare = 2 if r.dtype == np.complex64 and n <= 2 ** 12 else n  # n^2 u <= 1
            if norm_r * norm_inv < 1.0 / (spare * n * unit_roundoff(r)):
                return float(norm_r), float(1.0 / norm_inv), False, r_inv
    sv = _singular_values(fallback, what)
    return float(sv[0]), float(sv[-1]), _rank_deficient(sv[-1], sv[0], r), r_inv


def invert(a):
    """Inverse of a square matrix via QR and a triangular solve.

    One QR-based code path, the unbilled `_positive_qr`, keeps the stability
    story of the rest of the library. A matrix that `_rank_deficient` flags
    is numerically singular, and so is one whose QR factors or inverse come
    out non-finite (an ``a`` scaled into the subnormal range).

    The solve ``R X = Q^H`` goes through numpy's ``?gesv``: partial-pivot LU
    of an upper-triangular R with a nonzero diagonal is exact (L = I, U = R),
    so this is the back substitution itself, run on numpy's one OpenBLAS
    pool rather than waking scipy's second one.

    The singularity guard needs an SVD of ``a`` only near its threshold. The
    factors screen it first: ``kappa_2(a) = kappa_2(R)`` and
    ``||X||_F = ||R^-1||_F``, so factors and X that pass `_rank_verdict`'s
    screen (``||R||_F ||X||_F < 1 / (s n u)``, a spare factor s inside the
    guard's ``1 / (n u)``) are returned without one. Any other input runs
    the exact guard, so the error fires on the same inputs either way.
    """
    a = square_matrix(a, "a")
    n = a.shape[0]
    if n == 0:
        raise ShapeError("invert requires a nonempty matrix, got shape (0, 0)")
    _tally("inv")
    q, r = _positive_qr(a)
    # X = R^-1 Q^H, or None for an exactly singular R; non-finite values are checked below
    _, sigma_n, deficient, x = _rank_verdict(r, lambda r: np.linalg.solve(r, q.conj().T),
                                             fallback=a, what="invert")
    if deficient:
        raise NumericallySingularError("invert: matrix is numerically singular", sigma_n)
    # a non-finite Q makes X non-finite too
    if x is None or not (np.isfinite(x).all() and np.isfinite(r).all()):
        raise NumericallySingularError("invert: QR factors or inverse are not finite", sigma_n)
    return np.ascontiguousarray(x)
