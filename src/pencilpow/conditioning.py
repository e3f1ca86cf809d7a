"""Condition numbers for repeated squaring of a matrix pencil.

The central quantity is the smallest singular value of the block matrix
M_p(A, B) (size m*n with m = 2^p): -A on the diagonal blocks, B on the
subdiagonal, -B in the top-right corner. M_p is unitarily equivalent to the
block diagonal of the shifted pencils -A + e^{i theta_j} B over the m-th
roots of -1, which gives an O(m) formula for sigma_min without forming the
big matrix. The scale-invariant condition number is

    kappa_irs(A, B, p) = ||(A; B)||_2 / sigma_min(M_p(A, B)).

Also here: the distance d(A, B) to the nearest pencil singular on the unit
circle, read as the minimum of sigma_n(-A + e^{i theta} B) over the
`GRID_POINTS` roots of unity, which exceeds d by at most ||B||_2 pi /
GRID_POINTS, and Malyshev's integral criterion omega for the absence of
unit-circle eigenvalues. omega's trapezoidal rule on 2^k nodes is computed
by k steps of `squaring.irs_iter` on the normalized pencil (Malyshev's
doubling), so a `kernels.count_kernels` scope around it counts their QRs and
matmuls.

Each function but `build_mp_dense` first scales (A, B) jointly by a power
of two, so nothing it forms overflows, and scales sigma_min, d and tol back
exactly. The root formula refuses p above `MP_MAX_P` (`ShapeError`) before
it forms a node.
"""

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import kernels
from .errors import ConvergenceError, NearSingularNodeError, ShapeError
from .precision import _count, unit_roundoff
from .squaring import Pencil, irs_iter

__all__ = [
    "ConditionReport",
    "build_mp_dense",
    "sigma_min_mp",
    "kappa_irs",
    "distance_ill_posed",
    "omega_malyshev",
    "condition_chain_check",
]

#: dense construction guard: refuse m * n above this.
MP_DENSE_MAX_SIZE = 4096

#: root formula guard: refuse p above this, so at most 2^24 roots of -1 are
#: swept. Neighbouring roots then lie 2 pi 2^-24 apart, about 6 units of
#: complex64's roundoff (the rounded shifts start to coincide at p = 27), and
#: sigma_n moves by at most ||B||_2 times that between them; the sweep's node
#: arrays already peak near 0.7 GB, and p = 40 would ask for terabytes.
MP_MAX_P = 24

#: `distance_ill_posed`'s roots of unity: sigma_n(-A + e^{i theta} B) is
#: ||B||_2-Lipschitz in theta, so their minimum exceeds d(A, B) by at most
#: ||B||_2 pi / GRID_POINTS, the chain's grid slack; `omega_malyshev`'s first
#: level (2^9 = 512 nodes) and the relative change between levels that settles it
GRID_POINTS = 256
_QUAD_FIRST_LEVEL = 9
_QUAD_REL_TOL = 1e-6

#: matrix entries `_shifted_sigma_n` forms at once, which bounds its memory
_BATCH_ENTRIES = 2 ** 18


def _validated(a, b):
    """``(A 2^-e, B 2^-e, e)`` by `kernels._pow2_scaled`: entries below sqrt(2) in modulus.

    A scaled pencil comes back unchanged with e = 0, so a function may pass
    its scaled pencil to another and get the scaled result.
    """
    pencil = Pencil(a, b)
    stack, e = kernels._pow2_scaled(np.vstack([pencil.a, pencil.b]))
    n = pencil.a.shape[0]
    return stack[:n], stack[n:], e


def _nodes(m, j):
    """The angles 2 pi j / m: the m-th roots of unity for integer j, of -1 for j + 1/2."""
    return (2.0 * np.pi / m) * np.asarray(j, dtype=np.float64)


def _shifted_sigma_n(a, b, thetas):
    """sigma_n(-A + e^{i theta} B) for each theta (none for none).

    The one place the shifted pencils are formed: in batches of at most
    `_BATCH_ENTRIES` entries (or one pencil), so memory stays bounded. LAPACK
    factors each pencil on its own, so the batch size never changes a value.
    """
    shifts = np.exp(1j * np.asarray(thetas, dtype=np.float64)).astype(a.dtype)
    step = max(1, _BATCH_ENTRIES // a.size)
    batches = (-a[None, :, :] + shifts[s:s + step, None, None] * b[None, :, :]
               for s in range(0, shifts.size, step))
    return np.concatenate([np.empty(0, a.real.dtype)]
                          + [kernels._singular_values(f)[:, -1] for f in batches])


def _root_count(p, name):
    """``_count(p, 1, name)``, and `ShapeError` naming ``name`` above `MP_MAX_P`."""
    p = _count(p, 1, name)
    if p > MP_MAX_P:
        raise ShapeError(f"{name} sweeps 2^p roots of -1 and requires p <= {MP_MAX_P}, got {p}")
    return p


def build_mp_dense(a, b, p):
    """Assemble M_p(A, B) explicitly (test-scale oracle for the root formula).

    Guarded to m * n <= 4096 since the matrix has (m n)^2 entries.
    """
    pencil = Pencil(a, b)
    a, b = pencil.a, pencil.b
    p = _count(p, 1, "build_mp_dense")
    n = a.shape[0]
    m = 2 ** p
    if m * n > MP_DENSE_MAX_SIZE:
        raise ShapeError(
            f"dense M_p would be {m * n} x {m * n}; guard is {MP_DENSE_MAX_SIZE}"
        )
    out = np.zeros((m * n, m * n), dtype=a.dtype)
    for i in range(m):
        out[i * n:(i + 1) * n, i * n:(i + 1) * n] = -a
    for i in range(1, m):
        out[i * n:(i + 1) * n, (i - 1) * n:i * n] = b
    out[:n, (m - 1) * n:] = -b
    return out


def sigma_min_mp(a, b, p):
    """sigma_min(M_p(A, B)) via the m-th roots of -1; never forms M_p.

    Raises `DomainError` when the value itself overflows.
    """
    a, b, e = _validated(a, b)
    p = _root_count(p, "sigma_min_mp")
    smin = float(np.min(_shifted_sigma_n(a, b, _nodes(2 ** p, np.arange(2 ** p) + 0.5))))
    return kernels._scaled_back(smin, e, "sigma_min_mp")


def kappa_irs(a, b, p):
    """Scale-invariant condition number for p steps of implicit squaring.

    Returns ``inf`` where `kernels._rank_deficient` flags sigma_min(M_p)
    against ``||(A; B)||_2``: an eigenvalue of the pencil sits on an m-th
    root of -1 to working precision, or the pencil is zero.
    """
    p = _root_count(p, "kappa_irs")
    a, b, _ = _validated(a, b)
    return _kappa(kernels.spectral_norm(np.vstack([a, b])), sigma_min_mp(a, b, p), a)


def _kappa(stack_norm, smin, a):
    """``stack_norm / smin``, or ``inf`` where `kernels._rank_deficient` flags smin."""
    if kernels._rank_deficient(smin, stack_norm, a):
        return float("inf")
    return stack_norm / smin


def distance_ill_posed(a, b):
    """Distance to the nearest pencil singular somewhere on the unit circle.

    The minimum of sigma_n(-A + e^{i theta} B) over the `GRID_POINTS` roots
    of unity. That objective is ||B||_2-Lipschitz in theta, so the returned
    value d bounds the true distance from above and ``d - ||B||_2 pi /
    GRID_POINTS`` bounds it from below, up to roundoff. Raises `DomainError`
    when the value itself overflows.
    """
    a, b, e = _validated(a, b)
    vals = _shifted_sigma_n(a, b, _nodes(GRID_POINTS, np.arange(GRID_POINTS)))
    return kernels._scaled_back(float(np.min(vals)), e, "distance_ill_posed")


def omega_malyshev(a, b):
    """Malyshev's criterion for absence of eigenvalues near the unit circle.

    The spectral norm of

        (1/2) integral_0^{2 pi} (B - e^{i phi} A)^-1 (A A^H + B B^H)
                                 (B - e^{i phi} A)^-H  d phi

    by the trapezoidal rule on 2^k nodes (`_omega_levels`), from k =
    `_QUAD_FIRST_LEVEL` until two levels agree to `_QUAD_REL_TOL`. The first
    node, in phi order, whose sigma_n `kernels._rank_deficient` flags against
    ``||(A; B)||_2`` raises `NearSingularNodeError` naming phi: the pencil has
    an eigenvalue too close to the unit circle for the integral to be trusted.
    A rule not settled at 2^t nodes, t the significand width of the input's
    precision (24 or 53 bits), raises `ConvergenceError`.
    """
    a, b, _ = _validated(a, b)
    top = round(-math.log2(unit_roundoff(a)))
    prev = math.nan
    for k, cur in enumerate(islice(_omega_levels(a, b), top + 1 - _QUAD_FIRST_LEVEL)):
        if k and abs(cur - prev) <= _QUAD_REL_TOL * cur:
            return cur
        prev = cur
    raise ConvergenceError(f"omega_malyshev: the rule did not settle to rel {_QUAD_REL_TOL} "
                           f"within 2^{top} nodes")


def _omega_levels(a, b):
    """Yield omega's trapezoidal rule on the 2^k roots of unity, k = `_QUAD_FIRST_LEVEL`, ...

    ``[A^H; B^H] = Q R`` (complex128) gives ``[Ã B̃] = Q^H`` with ``B - z A =
    R^H (B̃ - z Ã)``, so the integrand is ``(B̃ - z Ã)^-1 (B̃ - z Ã)^-H``. An
    IRS step keeps that form: ``B_1 - z^2 A_1 = (Q_22^H + z Q_12^H)(B̃ - z Ã)``,
    and the terms of z and -z sum to twice the identity. So level k's rule is
    ``pi / sigma_n(B_k - A_k)^2`` after k steps of `irs_iter` (Malyshev, 1993).

    A level's SVD clears its nodes of the rank flag, or `_uncleared` narrows
    them to those whose `_shifted_sigma_n` at theta = -phi must be judged by
    `kernels._rank_deficient`, raising at the first in phi order. Level 0 is
    judged too, so a pencil singular at phi = 0 raises before an IRS step warns.
    """
    n = a.shape[0]
    stack_norm = kernels.spectral_norm(np.vstack([a, b]))
    q, r = kernels._positive_qr(np.hstack([a, b]).conj().T.astype(np.complex128))
    norm_r, sigma_r, _, _ = kernels._rank_verdict(r, fallback=r, what="omega_malyshev")
    u = unit_roundoff(r)
    # a flagged node has sigma_n(B - zA) < n u_a ||(A; B)||, moved <= sqrt(2) n u ||R||
    # by the QR's backward error and scaled by 1 / sigma_n(R); each later kernel adds
    # <= 2 n u to sigma_n(B_j - w A_j), times sqrt(2) per later step (a geometric sum)
    bound = (n * (unit_roundoff(a) * stack_norm + math.sqrt(2.0) * u * norm_r) / sigma_r
             if sigma_r > 0 else math.inf) + 2.0 * math.sqrt(2.0) * n * u / (1.0 - math.sqrt(0.5))
    levels = []
    for k, level in enumerate(irs_iter(q[:n].conj().T, q[n:].conj().T)):
        levels.append(level)
        if 0 < k < _QUAD_FIRST_LEVEL:
            continue
        sigma = float(_shifted_sigma_n(level.a_p, level.b_p, _nodes(1, [0]))[0])
        if not sigma >= 2.0 ** (k / 2) * bound:
            phis = _nodes(2 ** k, _uncleared(levels, k, bound, k > _QUAD_FIRST_LEVEL))
            smallest = _shifted_sigma_n(a, b, -phis)
            flagged = np.flatnonzero(kernels._rank_deficient(smallest, stack_norm, a))
            if flagged.size:
                j = flagged[0]
                raise NearSingularNodeError("omega_malyshev: pencil is numerically singular "
                                            "on the unit circle", smallest[j], phis[j])
        if k >= _QUAD_FIRST_LEVEL:
            yield math.pi / sigma ** 2 if sigma ** 2 > 0 else math.inf


def _uncleared(levels, k, bound, new):
    """Indices m, ascending, of level k's nodes phi = 2 pi m / 2^k that no screen clears.

    Coset r at depth j, the nodes with m = r mod 2^(k - j), maps to
    ``B_j - w A_j``, w = e^{2 pi i r / 2^(k - j)}, whose sigma_n is at most
    2^(j/2) times any of their ``sigma_n(B̃ - z Ã)``: above 2^(j/2) bound it
    clears them all, and otherwise it splits in two at depth j - 1. The search
    starts from the level's ``new`` nodes (m odd) or from all of them.
    """
    depth, cosets = (k - 1, np.array([1])) if new else (k, np.array([0]))
    for j in range(depth, 0, -1):
        period = 2 ** (k - j)
        sigma = _shifted_sigma_n(levels[j].a_p, levels[j].b_p, -_nodes(period, cosets))
        cosets = cosets[~(sigma >= 2.0 ** (j / 2) * bound)]
        cosets = np.concatenate([cosets, cosets + period])
    return np.sort(cosets)


@dataclass(frozen=True)
class ConditionReport:
    """All four conditioning quantities plus the inequality-chain verdicts.

    The chain (with declared slack ``tol``) is

        sigma_n(B; -A) >= sigma_min(M_p) >= d_(A,B)
                       >  sqrt(sigma_n(A A^H + B B^H)) / (14 omega).

    ``kappa_irs`` is ``inf`` exactly where the function `kappa_irs` returns
    ``inf``; ``math.isinf`` tests for it.
    """

    sigma_min_mp: float
    kappa_irs: float
    d_ab: float
    omega_ab: float
    stack_sigma_n: float
    p: int
    tol: float
    stack_vs_mp_ok: bool
    mp_vs_d_ok: bool
    d_vs_omega_ok: bool

    @property
    def chain_ok(self):
        return self.stack_vs_mp_ok and self.mp_vs_d_ok and self.d_vs_omega_ok


def condition_chain_check(a, b, p):
    """Compute sigma_min(M_p), kappa_irs, d, omega and check the chain.

    Link failures are reported as data in the returned `ConditionReport`,
    but an omega that does not settle raises `ConvergenceError`: an
    eigenvalue so close to the unit circle that the rule needs more than 2^t
    nodes, t the significand width (``[[1]], [[1 + 2^-50]]`` in complex128).
    One 1e-4 away (``condition_chain_check([[1]], [[1.0001]], 2)``) settles
    at 2^19 nodes. The declared slack combines roundoff with the grid slack
    ``||B||_2 pi / GRID_POINTS``, the width of d's bracket (see
    `distance_ill_posed`), which the middle link allows. sigma_n(B; -A) is
    sigma_n(A; B), and the tail's sqrt(sigma_n(A A^H + B B^H)) is
    sigma_n([A B]). The links are checked on the scaled pencil; sigma, d and
    tol are then scaled back.
    """
    p = _root_count(p, "condition_chain_check")
    a, b, e = _validated(a, b)
    n = a.shape[0]
    stack = np.vstack([a, b])
    stack_sigma_n = kernels.smallest_singular(stack)
    stack_norm = kernels.spectral_norm(stack)
    smin = sigma_min_mp(a, b, p)
    kap = _kappa(stack_norm, smin, a)
    d = distance_ill_posed(a, b)
    try:
        omega = omega_malyshev(a, b)
    except NearSingularNodeError:
        # an eigenvalue sits on the unit circle to working precision; the
        # integral diverges, matching the omega = inf convention
        omega = float("inf")
    roundoff = 10.0 * n * unit_roundoff(a) * stack_norm
    grid_slack = kernels.spectral_norm(b) * np.pi / GRID_POINTS
    tol = roundoff + grid_slack
    tail = kernels.smallest_singular(np.hstack([a, b])) / (14.0 * omega)
    name = "condition_chain_check"
    return ConditionReport(
        sigma_min_mp=kernels._scaled_back(smin, e, name),
        kappa_irs=kap,
        d_ab=kernels._scaled_back(d, e, name),
        omega_ab=omega,
        stack_sigma_n=kernels._scaled_back(stack_sigma_n, e, name),
        p=p,
        tol=kernels._scaled_back(tol, e, name),
        stack_vs_mp_ok=stack_sigma_n >= smin - roundoff,
        mp_vs_d_ok=smin >= d - tol,
        d_vs_omega_ok=d > tail - roundoff,
    )
