"""Reproducible random problem generators.

All randomness flows through numpy's counter-based Philox generator: a given
integer seed always produces bit-identical output. Functions also accept an
existing ``numpy.random.Generator`` so that several draws within one trial
can share a stream.
"""

import numbers

import numpy as np

from .. import kernels
from ..errors import DomainError, NonUnitaryError, ShapeError
from ..precision import _count, _numeric, as_matrix
from ..squaring import Pencil

__all__ = [
    "rng_from_seed",
    "gen_ginibre",
    "gen_haar",
    "make_ill_conditioned",
    "sample_spectrum",
    "build_test_pencil",
]

SPECTRUM_REGIONS = ("circle", "disk", "annulus")


def _check_sampling(seed=0, region="circle", r_lo=0.5, r_hi=1.0, delta=1.0):
    """The one statement of each sampling rule, type before range; every default passes."""
    if not isinstance(seed, numbers.Integral):  # numpy integers pass
        raise DomainError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if region not in SPECTRUM_REGIONS:
        raise DomainError(f"unknown spectrum region {region!r}; expected {SPECTRUM_REGIONS}")
    if not (isinstance(r_lo, numbers.Real) and isinstance(r_hi, numbers.Real)
            and 0.0 < r_lo < r_hi < np.inf):
        raise DomainError("annulus bounds must satisfy 0 < r_lo < r_hi < inf")
    if not (isinstance(delta, numbers.Real) and 0.0 < delta <= 1.0):
        raise DomainError(f"delta must be in (0, 1], got {delta!r}")


def rng_from_seed(seed):
    """Philox generator for an integer seed >= 0; pass through existing generators.

    numpy integers pass; any other seed, a float included, is a `DomainError`.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    _check_sampling(seed=seed)
    return np.random.Generator(np.random.Philox(int(seed)))


def gen_ginibre(n, seed):
    """n-by-n matrix of i.i.d. standard complex Gaussians (x + iy)/sqrt(2)."""
    n = _count(n, 0, "gen_ginibre", "n")
    rng = rng_from_seed(seed)
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


def gen_haar(n, seed):
    """Haar-distributed n-by-n unitary.

    LAPACK's complete Q of a complex Gaussian with the real-nonnegative
    diagonal normalization of `kernels._positive_qr`; that normalization is
    exactly what makes the Q factor Haar rather than merely unitary. Drawing
    a problem is not algorithm work, so the QR is not tallied.
    """
    return kernels._positive_qr(gen_ginibre(_count(n, 0, "gen_haar", "n"), seed))[0]


def make_ill_conditioned(a, delta):
    """Shrink the smallest singular value of ``a`` by the factor ``delta``.

    Subtracts ``(1 - delta) sigma_n(a) u w^H`` for u, w the last left/right
    singular vectors, leaving every other singular value untouched.
    delta = 1 returns ``a`` unchanged. Raises `ShapeError` for an empty ``a``.
    """
    _check_sampling(delta=delta)
    u, s, vh = kernels.svd(a)
    if s.size == 0:
        raise ShapeError(f"make_ill_conditioned requires a nonempty matrix, got {np.shape(a)}")
    return a - (1.0 - delta) * s[-1] * np.outer(u[:, -1], vh[-1])


def sample_spectrum(region, n, seed, r_lo=0.95, r_hi=1.05):
    """Diagonal eigenvalue samples from a region of the complex plane.

    circle: unit modulus, uniform phase. disk: area-uniform in the unit
    disk. annulus: modulus uniform in [r_lo, r_hi], uniform phase (bounds checked in any region).
    """
    _check_sampling(region=region, r_lo=r_lo, r_hi=r_hi)
    n = _count(n, 0, "sample_spectrum", "n")
    rng = rng_from_seed(seed)
    phase = np.exp(2j * np.pi * rng.random(n))
    if region == "circle":
        return phase
    if region == "disk":
        return np.sqrt(rng.random(n)) * phase
    return (r_lo + (r_hi - r_lo) * rng.random(n)) * phase


def build_test_pencil(a, v, d):
    """Oracle-checkable pencil (A, A V D V^H) from a known diagonalization.

    ``d`` is the 1-D diagonal of D and ``v`` is unitary. Returns
    ``(pencil, oracle)`` where ``oracle(p)`` evaluates V D^(2^p) V^H, the
    exact value of (A^-1 B)^(2^p). The diagonal powers are taken by p
    elementwise squarings, so the oracle carries only O(p) rounding. A ``v``
    with ``||V^H V - I||_2 > 1e-10`` raises `NonUnitaryError` carrying that
    defect. The check is `kernels._unitarity_defect`'s certified screen:
    ``||V^H V - I||_F <= 1e-10`` bounds the 2-norm, so a unitary ``v`` such
    as `gen_haar`'s passes without an eigenvalue solve, and only a ``v`` the
    screen rejects pays for the exact 2-norm. Raises `ShapeError` unless
    ``a`` and ``v`` are both n-by-n for the n entries of ``d``, and
    `DomainError` when an argument is not numeric or not finite.
    """
    a = as_matrix(a, "A")
    v = as_matrix(v, "V")
    d = _numeric(d, "d", np.complex128).ravel()
    if not a.shape == v.shape == (d.size, d.size):
        raise ShapeError(f"build_test_pencil requires n-by-n A and V for the n = {d.size} "
                         f"entries of d, got {a.shape} and {v.shape}")
    defect = kernels._unitarity_defect(v, 1e-10)
    if defect > 1e-10:
        raise NonUnitaryError("build_test_pencil: V is not unitary", defect)
    vh = v.conj().T
    pencil = Pencil(a, a @ (v * d[None, :]) @ vh)

    def oracle(p):
        dp = d.copy()
        for _ in range(p):
            dp = dp * dp
        return (v * dp[None, :]) @ vh

    return pencil, oracle
