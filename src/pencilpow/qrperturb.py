"""Spectral-norm perturbation theory for QR factorizations.

Pieces assembled here:

* ``sun_alpha`` -- the scalar amplification factor
  alpha(eps) = (1/eps) ln(1/(1-eps)) appearing in Sun-style QR perturbation
  bounds.
* ``lebesgue_constant`` -- L_k = (1/2pi) integral |D_k|, the Lebesgue
  constant of the Dirichlet kernel (a finite sum, by Fejer's formula),
  which controls the norm of the "keep the upper triangle" map and hence
  the log(n) factor below.
* ``triangular_norm_check`` -- for lower-triangular L with real diagonal,
  ||L||_2 <= (1/2 + L_{n+1}) ||L + L^H||_2, plus the looser explicit form
  (ln(n+1) + 3) ||L + L^H||_2.
* ``align_complement`` -- given two full unitaries with nearby leading
  column blocks, a unitary W aligning the trailing blocks with
  ||Q_2 - U_2 W||_2 <= 4 ||Q_1 - U_1||_2.
* ``qr_perturb_certificate`` -- an empirical certificate that the Q factor
  of A + E stays within (2 ln(n+1) + 7) alpha(.) kappa_2(A) ||E||_2/||A||_2
  of the Q factor of A, both factors pinned down by the real-positive
  diagonal normalization that makes reduced QR unique.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError, NonUnitaryError, NumericallySingularError, ShapeError
from .precision import as_matrix, same_precision, square_matrix, unit_roundoff

__all__ = [
    "PerturbCertificate",
    "sun_alpha",
    "lebesgue_constant",
    "triangular_norm_check",
    "align_complement",
    "qr_perturb_certificate",
]

_LEBESGUE_CHUNK = 2 ** 16  # terms of Fejer's sum per numpy call: 0.5 MiB per temporary


def sun_alpha(eps):
    """alpha(eps) = (1/eps) ln(1/(1 - eps)) on (0, 1).

    Below 1e-8 the direct formula cancels, so the two-term series
    1 + eps/2 is returned (relative error < 1e-16 there).
    """
    if not isinstance(eps, numbers.Real) or not 0.0 < eps < 1.0:  # numpy floats pass
        raise DomainError(f"sun_alpha requires a real 0 < eps < 1, got {eps!r}")
    eps = float(eps)
    if eps < 1e-8:
        return 1.0 + eps / 2.0
    return math.log1p(eps / (1.0 - eps)) / eps


def lebesgue_constant(k):
    """L_k = (1/2 pi) integral_{-pi}^{pi} |D_k(theta)| d theta, by Fejer's finite sum.

    L_k = 1/(2k+1) + (2/pi) sum_{j=1..k} tan(pi j/(2k+1)) / j, with each
    tangent written as the cotangent of the complementary angle
    pi (2k+1-2j) / (4k+2), which stays accurate as j nears k, summed in
    bounded chunks. ``k`` must be an integer >= 0; L_0 = 1 exactly.
    """
    if not isinstance(k, numbers.Integral) or k < 0:  # numpy integers pass
        raise DomainError(f"lebesgue_constant requires an integer k >= 0, got {k!r}")
    cot_sum = 0.0
    for start in range(1, k + 1, _LEBESGUE_CHUNK):
        j = np.arange(start, min(start + _LEBESGUE_CHUNK, k + 1))
        cot_sum += np.sum(1.0 / (j * np.tan(np.pi * (2 * k + 1 - 2 * j) / (4 * k + 2))))
    return 1.0 / (2 * k + 1) + 2.0 / np.pi * float(cot_sum)


def triangular_norm_check(tri):
    """Evaluate both sides of the triangular-norm inequality.

    ``tri`` must be lower triangular with an exactly real diagonal.
    Returns ``(lhs, rhs_exact, rhs_loose)`` where
    lhs = ||L||_2, rhs_exact = (1/2 + L_{n+1}) ||L + L^H||_2 and
    rhs_loose = (ln(n+1) + 3) ||L + L^H||_2. lhs <= rhs_exact <= rhs_loose
    always holds mathematically; this function just measures.
    """
    tri = square_matrix(tri, "L")
    n = tri.shape[0]
    if np.any(np.triu(tri, 1) != 0):
        raise DomainError("triangular_norm_check: input is not lower triangular")
    if np.any(np.imag(np.diagonal(tri)) != 0):
        raise DomainError("triangular_norm_check: diagonal is not real")
    sym = tri + tri.conj().T
    lhs = kernels.spectral_norm(tri)
    sym_norm = kernels.spectral_norm(sym)
    rhs_exact = (0.5 + lebesgue_constant(n + 1)) * sym_norm
    rhs_loose = (math.log(n + 1) + 3.0) * sym_norm
    return lhs, rhs_exact, rhs_loose


def _check_unitary(q, name):
    q = square_matrix(q, name)
    tol = 100.0 * q.shape[0] * unit_roundoff(q)
    defect = kernels._unitarity_defect(q, tol)
    if defect > tol:
        raise NonUnitaryError(f"{name} is not unitary to tolerance", defect)
    return q


def align_complement(q, u):
    """Unitary gauge aligning the trailing blocks of two full unitaries.

    Splits the 2n-by-2n inputs as ``q = [q1 q2]``, ``u = [u1 u2]`` (leading
    and trailing n columns), takes the SVD of ``u2^H q2 = V1 S V2^H`` and
    returns ``(w, residual)`` with ``w = V1 V2^H`` and
    ``residual = ||q2 - u2 w||_2``. The residual satisfies
    ``residual <= 4 ||q1 - u1||_2`` up to roundoff.
    """
    q = _check_unitary(q, "Q")
    u = _check_unitary(u, "U")
    same_precision(q, u, "align_complement")
    if q.shape != u.shape:
        raise ShapeError(f"align_complement: sizes differ, {q.shape} vs {u.shape}")
    if q.shape[0] % 2 != 0:
        raise ShapeError(f"align_complement expects even size, got {q.shape[0]}")
    n = q.shape[0] // 2
    q2 = q[:, n:]
    u2 = u[:, n:]
    left, _, right_h = kernels.svd(u2.conj().T @ q2)
    w = left @ right_h
    residual = kernels.spectral_norm(q2 - u2 @ w)
    return w, residual


@dataclass(frozen=True)
class PerturbCertificate:
    """Empirical vs. theoretical Q-factor drift for a perturbed QR.

    ``valid`` is True when the hypothesis ||A^+||_2 ||E||_2 < 1 holds, in
    which case ``empirical_w_norm <= bound_value`` up to roundoff.
    """

    empirical_w_norm: float
    bound_value: float
    alpha_arg: float
    valid: bool


def qr_perturb_certificate(a, e):
    """Certificate for the spectral-norm QR perturbation bound.

    Computes the unique reduced QR factors of ``a`` and ``a + e`` (real
    positive diagonal normalization) and compares the measured Q drift

        empirical = || Q(a + e) - Q(a) ||_2

    against ``(2 ln(n+1) + 7) alpha(x) kappa_2(a) ||e||_2 / ||a||_2`` with
    ``x = ||a^+||_2 ||e||_2`` (``alpha_arg``, inf where it overflows). When
    ``x >= 1`` the bound's hypothesis fails and the certificate is returned
    with ``valid=False`` and an infinite bound; ``e = 0`` gives a zero bound.
    """
    a = as_matrix(a, "a")
    e = as_matrix(e, "e")
    same_precision(a, e, "qr_perturb_certificate")
    if a.shape != e.shape:
        raise ShapeError(f"a and e differ in shape: {a.shape} vs {e.shape}")
    m, n = a.shape
    if not m >= n >= 1:
        raise ShapeError(f"qr_perturb_certificate requires m >= n >= 1, got {a.shape}")
    sigma_1, sigma_n, deficient, _ = kernels._rank_verdict(a, None, fallback=a,
                                                           what="qr_perturb_certificate")
    if deficient:
        raise NumericallySingularError("qr_perturb_certificate: a is rank deficient", sigma_n)
    e_norm = kernels.spectral_norm(e)
    alpha_arg = e_norm / sigma_n
    # reduced QR with real positive diag(R): the unique factorization
    q_a, _ = kernels._positive_qr(a)
    q_ae, _ = kernels._positive_qr(a + e)
    empirical = kernels.spectral_norm(q_ae - q_a)
    if alpha_arg >= 1.0:
        return PerturbCertificate(empirical, float("inf"), alpha_arg, valid=False)
    if alpha_arg == 0.0:
        bound = 0.0
    else:
        kappa = sigma_1 / sigma_n
        bound = (2.0 * math.log(n + 1) + 7.0) * sun_alpha(alpha_arg) * kappa * e_norm / sigma_1
    return PerturbCertificate(empirical, bound, alpha_arg, valid=True)
