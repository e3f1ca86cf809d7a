"""Reproducible random problem generators.

All randomness flows through numpy's counter-based Philox generator: a given
integer seed always produces bit-identical output. Functions also accept an
existing ``numpy.random.Generator`` so that several draws within one trial
can share a stream.
"""

import numpy as np

from .. import kernels
from ..errors import DomainError
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


def rng_from_seed(seed):
    """Philox generator for a non-negative integer seed; pass through existing generators."""
    if isinstance(seed, np.random.Generator):
        return seed
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.Philox(int(seed)))


def gen_ginibre(n, seed):
    """n-by-n matrix of i.i.d. standard complex Gaussians (x + iy)/sqrt(2)."""
    rng = rng_from_seed(seed)
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


def gen_haar(n, seed):
    """Haar-distributed n-by-n unitary.

    QR of a complex Gaussian with the real-nonnegative diagonal
    normalization of `kernels.full_qr`; that normalization is exactly what
    makes the Q factor Haar rather than merely unitary.
    """
    return kernels.full_qr(gen_ginibre(n, seed)).Q


def make_ill_conditioned(a, delta):
    """Shrink the smallest singular value of ``a`` by the factor ``delta``.

    Subtracts ``(1 - delta) sigma_n(a) u w^H`` for u, w the last left/right
    singular vectors, leaving every other singular value untouched.
    delta = 1 returns ``a`` unchanged.
    """
    if not 0.0 < delta <= 1.0:
        raise DomainError(f"make_ill_conditioned requires delta in (0, 1], got {delta}")
    res = kernels.svd(a)
    u = res.U[:, -1]
    w = res.V[:, -1]
    shrink = (1.0 - delta) * res.singular_values[-1]
    return a - shrink * np.outer(u, w.conj())


def sample_spectrum(region, n, seed, r_lo=0.95, r_hi=1.05):
    """Diagonal eigenvalue samples from a region of the complex plane.

    circle: unit modulus, uniform phase. disk: area-uniform in the unit
    disk. annulus: modulus uniform in [r_lo, r_hi], uniform phase.
    """
    if region not in SPECTRUM_REGIONS:
        raise DomainError(f"unknown spectrum region {region!r}; expected {SPECTRUM_REGIONS}")
    rng = rng_from_seed(seed)
    phase = np.exp(2j * np.pi * rng.random(n))
    if region == "circle":
        return phase
    if region == "disk":
        return np.sqrt(rng.random(n)) * phase
    if not 0.0 < r_lo < r_hi:
        raise DomainError(f"annulus requires 0 < r_lo < r_hi, got [{r_lo}, {r_hi}]")
    return (r_lo + (r_hi - r_lo) * rng.random(n)) * phase


def build_test_pencil(a, v, d):
    """Oracle-checkable pencil (A, A V D V^H) from a known diagonalization.

    ``d`` is the 1-D diagonal of D. Returns ``(pencil, oracle)`` where
    ``oracle(p)`` evaluates V D^(2^p) V^-1, the exact value of
    (A^-1 B)^(2^p). The diagonal powers are taken by p elementwise
    squarings, so the oracle carries only O(p) rounding. For unitary ``v``
    (``||V^H V - I||_2 <= 1e-10``) the inverse is the conjugate transpose;
    otherwise it is formed explicitly (the expm-style construction with
    non-normal eigenvectors). The check is `kernels._unitarity_defect`'s
    certified screen: ``||V^H V - I||_F <= 1e-10`` bounds the 2-norm, so a
    unitary ``v`` such as `gen_haar`'s passes without an eigenvalue solve,
    and only a ``v`` the screen rejects pays for the exact 2-norm.
    """
    a = np.asarray(a)
    v = np.asarray(v)
    d = np.asarray(d, dtype=np.complex128).ravel()
    if kernels._unitarity_defect(v, 1e-10) <= 1e-10:
        v_inv = v.conj().T
    else:
        v_inv = np.linalg.inv(v)
    pencil = Pencil(a, a @ (v * d[None, :]) @ v_inv)

    def oracle(p):
        dp = d.copy()
        for _ in range(p):
            dp = dp * dp
        return (v * dp[None, :]) @ v_inv

    return pencil, oracle
