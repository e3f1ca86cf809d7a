"""Condition numbers for repeated squaring of a matrix pencil.

The central quantity is the smallest singular value of the block matrix
M_p(A, B) (size m*n with m = 2^p): -A on the diagonal blocks, B on the
subdiagonal, -B in the top-right corner. M_p is unitarily equivalent to the
block diagonal of the shifted pencils -A + e^{i theta_j} B over the m-th
roots of -1, which gives an O(m) formula for sigma_min without forming the
big matrix. The scale-invariant condition number is

    kappa_irs(A, B, p) = ||(A; B)||_2 / sigma_min(M_p(A, B)).

Also here: the distance to the nearest pencil singular on the unit circle
(a grid + golden-section estimate of min_theta sigma_n(-A + e^{i theta} B))
and Malyshev's integral criterion omega for the absence of unit-circle
eigenvalues.

Each function but `build_mp_dense` first scales (A, B) jointly by a power
of two, so nothing it forms overflows, and scales sigma_min, d and tol back
exactly.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConvergenceError, NearSingularNodeError, ShapeError
from .precision import _count, unit_roundoff
from .squaring import Pencil

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

#: `distance_ill_posed`'s theta grid, whose spacing sets the chain's grid
#: slack, and golden-section steps; `omega_malyshev`'s starting nodes, the
#: relative change between doublings that settles it, and the doublings allowed
GRID_POINTS = 256
_REFINE_ITERS = 40
_QUAD_POINTS = 512
_QUAD_REL_TOL = 1e-6
_QUAD_MAX_DOUBLINGS = 8

#: matrix entries `_shifted` forms at once, which bounds its memory
_BATCH_ENTRIES = 2 ** 18

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _validated(a, b):
    """``(A 2^-e, B 2^-e, e)`` by `kernels._pow2_scaled`: entries below sqrt(2) in modulus.

    A scaled pencil comes back unchanged with e = 0, so a function may pass
    its scaled pencil to another and get the scaled result.
    """
    pencil = Pencil(a, b)
    stack, e = kernels._pow2_scaled(np.vstack([pencil.a, pencil.b]))
    n = pencil.a.shape[0]
    return stack[:n], stack[n:], e


def _roots_of_minus_one(p):
    m = 2 ** p
    j = np.arange(1, m + 1)
    return (2.0 * j - 1.0) * np.pi / m


def _shifted(a, b, thetas):
    """Yield ``(s, batch)``: the pencils -A + e^{i theta} B for thetas[s:s + len(batch)].

    Each batch holds at most `_BATCH_ENTRIES` entries (or one pencil), so
    memory stays bounded while the 2^p thetas of `sigma_min_mp` grow; time
    still grows as 2^p. LAPACK factors each pencil of a batch on its own.
    """
    shifts = np.exp(1j * np.asarray(thetas, dtype=np.float64)).astype(a.dtype)
    step = max(1, _BATCH_ENTRIES // a.size)
    for s in range(0, shifts.size, step):
        yield s, -a[None, :, :] + shifts[s:s + step, None, None] * b[None, :, :]


def _shifted_sigma_n(a, b, thetas):
    """sigma_n(-A + e^{i theta} B) for each theta, whatever the batch size."""
    return np.concatenate([kernels._singular_values(f)[:, -1] for _, f in _shifted(a, b, thetas)])


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
    p = _count(p, 1, "sigma_min_mp")
    smin = float(np.min(_shifted_sigma_n(a, b, _roots_of_minus_one(p))))
    return kernels._scaled_back(smin, e, "sigma_min_mp")


def kappa_irs(a, b, p):
    """Scale-invariant condition number for p steps of implicit squaring.

    Returns ``inf`` where `kernels._rank_deficient` flags sigma_min(M_p)
    against ``||(A; B)||_2``: an eigenvalue of the pencil sits on an m-th
    root of -1 to working precision, or the pencil is zero.
    """
    p = _count(p, 1, "kappa_irs")
    a, b, _ = _validated(a, b)
    return _kappa(kernels.spectral_norm(np.vstack([a, b])), sigma_min_mp(a, b, p), a)


def _kappa(stack_norm, smin, a):
    """``stack_norm / smin``, or ``inf`` where `kernels._rank_deficient` flags smin."""
    if kernels._rank_deficient(smin, stack_norm, a):
        return float("inf")
    return stack_norm / smin


def _golden_section(f, lo, hi, iters):
    """Plain golden-section minimization of a scalar function on [lo, hi]."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
    return min(f1, f2)


def distance_ill_posed(a, b):
    """Distance to the nearest pencil singular somewhere on the unit circle.

    Estimates ``min_theta sigma_n(-A + e^{i theta} B)`` by a uniform grid of
    `GRID_POINTS` over [0, 2 pi) followed by golden-section refinement
    around the grid minimizer. The returned value is an upper bound on the
    true distance; its resolution is limited by the grid (the objective is
    ||B||_2-Lipschitz in theta). Raises `DomainError` when the value itself
    overflows.
    """
    a, b, e = _validated(a, b)
    thetas = np.linspace(0.0, 2.0 * np.pi, GRID_POINTS, endpoint=False)
    vals = _shifted_sigma_n(a, b, thetas)
    k = int(np.argmin(vals))
    best = float(vals[k])
    h = 2.0 * np.pi / GRID_POINTS

    def objective(theta):
        return float(_shifted_sigma_n(a, b, [theta])[0])

    refined = _golden_section(objective, thetas[k] - h, thetas[k] + h, _REFINE_ITERS)
    return kernels._scaled_back(min(best, refined), e, "distance_ill_posed")


def omega_malyshev(a, b):
    """Malyshev's criterion for absence of eigenvalues near the unit circle.

    Evaluates the spectral norm of

        (1/2) integral_0^{2 pi} (B - e^{i phi} A)^-1 (A A^H + B B^H)
                                 (B - e^{i phi} A)^-H  d phi

    by a trapezoidal rule on the periodic integrand, starting from
    `_QUAD_POINTS` nodes and doubling until two successive estimates agree
    to `_QUAD_REL_TOL`; each doubling adds only its new midpoints to a
    running sum, so every node is factored once. Node phi is the `_shifted`
    pencil at theta = -phi: B - e^{i phi} A = e^{i phi} (-A + e^{-i phi} B),
    and the unit factor cancels in the integrand. The first node, in phi
    order, whose sigma_n `kernels._rank_deficient` flags against
    ``||(A; B)||_2`` raises `NearSingularNodeError` naming phi: the pencil has
    an eigenvalue too close to the unit circle for the integral to be trusted.
    """
    a, b, _ = _validated(a, b)
    n = a.shape[0]
    h = (a @ a.conj().T + b @ b.conj().T).astype(np.complex128)
    stack_norm = kernels.spectral_norm(np.vstack([a, b]))

    def node_sum(phis):
        total = np.zeros((n, n), dtype=np.complex128)
        for s, f in _shifted(a, b, -phis):
            smallest = kernels._singular_values(f)[:, -1]
            flagged = np.flatnonzero(kernels._rank_deficient(smallest, stack_norm, a))
            if flagged.size:  # the first flagged node in phi order
                k = flagged[0]
                raise NearSingularNodeError("omega_malyshev: pencil is numerically singular "
                                            "on the unit circle", smallest[k], phis[s + k])
            f = f.astype(np.complex128)
            t = np.linalg.solve(f, h).conj().swapaxes(1, 2)
            total += np.linalg.solve(f, t).sum(axis=0).conj().T
        return total

    nodes = _QUAD_POINTS
    acc = node_sum(np.linspace(0.0, 2.0 * np.pi, nodes, endpoint=False))
    prev = kernels.spectral_norm((np.pi / nodes) * acc)
    for _ in range(_QUAD_MAX_DOUBLINGS):
        acc += node_sum(np.linspace(0.0, 2.0 * np.pi, 2 * nodes, endpoint=False)[1::2])
        nodes *= 2
        cur = kernels.spectral_norm((np.pi / nodes) * acc)
        if abs(cur - prev) <= _QUAD_REL_TOL * abs(cur):
            return cur
        prev = cur
    raise ConvergenceError(
        f"omega_malyshev: quadrature did not settle to rel {_QUAD_REL_TOL} within "
        f"{nodes} nodes"
    )


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
    eigenvalue about 1e-4 from the unit circle needs more nodes than the
    doublings allow (``condition_chain_check([[1]], [[1.0001]], 2)``). The
    declared slack combines roundoff with the grid resolution of the
    distance estimate (d is only estimated from above, so the middle link
    uses the grid slack; see `distance_ill_posed`). The links are checked
    on the scaled pencil; sigma, d and tol are then scaled back.
    """
    p = _count(p, 1, "condition_chain_check")
    a, b, e = _validated(a, b)
    n = a.shape[0]
    stack_sigma_n = kernels.smallest_singular(np.vstack([b, -a]))
    stack_norm = kernels.spectral_norm(np.vstack([a, b]))
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
    hermitian = a @ a.conj().T + b @ b.conj().T
    tail = math.sqrt(max(kernels.smallest_singular(hermitian), 0.0)) / (14.0 * omega)
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
