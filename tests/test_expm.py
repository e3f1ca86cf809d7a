import math
import warnings

import numpy as np
import pytest

from pencilpow import expm as expmod
from pencilpow import kernels
from pencilpow.errors import DomainError, NumericallySingularError, PencilPowError
from pencilpow.harness.generators import gen_ginibre, make_ill_conditioned

from conftest import ginibre, rel_err, rng_for


# --- select_scaling ----------------------------------------------------------

def test_select_scaling_zero_matrix():
    assert expmod.select_scaling(np.zeros((3, 3))) == 0


def test_select_scaling_under_threshold():
    assert expmod.select_scaling(np.diag([4.0, 1.0]).astype(complex), 13) == 0


def test_select_scaling_norm_hundred():
    # 100 / 32 = 3.125 <= theta_13 < 100 / 16
    m = np.diag([100.0, 1.0]).astype(complex)
    assert expmod.select_scaling(m, 13) == 5


def test_select_scaling_thresholds_per_degree():
    m = np.diag([1.0]).astype(complex)
    assert expmod.select_scaling(m, 3) == 7   # 1 / 2^7 < 0.01495 < 1 / 2^6
    assert expmod.select_scaling(m, 9) == 0


def _loop_scaling(m, degree):
    # the plain search over s, for 1-norms that do not overflow
    norm1 = float(np.linalg.norm(m, 1))
    s = 0
    while norm1 / 2.0 ** s > expmod.PADE_THETA[degree]:
        s += 1
    return s


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_select_scaling_matches_the_plain_search(dtype):
    rng = rng_for(76)
    for degree, theta in expmod.PADE_THETA.items():
        # norms exactly at theta 2^k, one ulp either side of it, and random
        for k in (-3, 0, 1, 7, 40):
            at = dtype(theta * 2.0 ** k).real
            for norm in (at, np.nextafter(at, 0), np.nextafter(at, np.inf)):
                m = np.diag([norm, norm / 3]).astype(dtype)
                assert expmod.select_scaling(m, degree) == _loop_scaling(m, degree)
        m = (ginibre(5, rng) * 10.0 ** rng.uniform(-20, 20)).astype(dtype)
        assert expmod.select_scaling(m, degree) == _loop_scaling(m, degree)


@pytest.mark.parametrize("backend", ["explicit", "irs"])
@pytest.mark.parametrize("dtype, modulus", [(np.complex128, 1e308), (np.complex64, 1e38)])
def test_expm_on_entries_near_overflow_is_finite_or_structured(dtype, modulus, backend):
    # the 1-norm of these matrices overflows; s still comes out finite
    m = np.full((4, 4), modulus * np.exp(0.3j), dtype=dtype)
    assert np.all(np.isfinite(m))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # scaling by 2^-60 is exact and takes 60 squarings off
        assert expmod.select_scaling(m) == _loop_scaling(m * dtype(2.0 ** -60), 13) + 60
        try:
            result = expmod.expm(m, expmod.ExpmConfig(squaring_backend=backend))
        except PencilPowError:
            return
    assert np.all(np.isfinite(result))


# --- pade --------------------------------------------------------------------

def _horner_pade(x, degree):
    # the two Horner recurrences in X^2 the even/odd scheme replaced
    c = expmod._pade_coefficients(degree)
    eye = np.eye(x.shape[0], dtype=x.dtype)
    x2 = x @ x
    parts = []
    for coeffs in (c[0::2][::-1], c[1::2][::-1]):
        acc = coeffs[0] * eye
        for coeff in coeffs[1:]:
            acc = acc @ x2 + coeff * eye
        parts.append(acc)
    even, odd = parts[0], x @ parts[1]
    return even + odd, even - odd


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_pade_agrees_with_horner(dtype):
    # both evaluations are within a few u of sum |b_k| ||X||_1^k of the exact
    # polynomials, at every degree, for ||X||_1 at the degree's theta and below
    rng = rng_for(80)
    u = 2.0 ** -24 if dtype == np.complex64 else 2.0 ** -53
    for degree in range(1, 14):
        theta = min(t for m, t in expmod.PADE_THETA.items() if m >= degree)
        b = expmod._pade_coefficients(degree)
        for scale in (theta, theta / 8):
            x = ginibre(16, rng)
            x = (x * (scale / np.linalg.norm(x, 1))).astype(dtype)
            tol = 10 * u * sum(bk * scale ** k for k, bk in enumerate(b))
            for got, want in zip(expmod.pade_numerator_denominator(x, degree),
                                 _horner_pade(x, degree)):
                assert got.dtype == dtype
                assert np.linalg.norm(got - want, 1) <= tol, degree


def test_pade_product_counts():
    x = ginibre(6, rng_for(81)) / 6.0
    gates = {13: 6, 9: 5, 7: 4, 5: 3, 3: 2}
    for degree in range(1, 14):
        with kernels.count_kernels() as counts:
            expmod.pade_numerator_denominator(x, degree)
        assert counts.matmul <= degree + 1, degree  # the Horner recurrences' count
        if degree in gates:
            assert counts.matmul == gates[degree], degree
        assert counts == kernels.KernelCounts(matmul=counts.matmul)


def test_expm_at_s_zero_counts():
    m = 0.5 * ginibre(6, rng_for(74)) / 6.0
    for backend in ("explicit", "irs"):
        with kernels.count_kernels() as counts:
            expmod.expm(m, expmod.ExpmConfig(squaring_backend=backend, scaling_override=0))
        assert counts == kernels.KernelCounts(matmul=7, inv=1)


@pytest.mark.parametrize("backend", ["explicit", "irs"])
@pytest.mark.parametrize("dtype, scale", [(np.complex128, 1e100), (np.complex64, 1e20)])
def test_pade_overflow_names_the_stage(dtype, scale, backend):
    # X^2 (complex64) or X^4 (complex128) overflows; the input itself is finite
    m = scale * np.eye(3, dtype=dtype)
    config = expmod.ExpmConfig(squaring_backend=backend, scaling_override=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="pade"):
            expmod.expm(m, config)


def test_pade_zero_input_gives_identity():
    p, q = expmod.pade_numerator_denominator(np.zeros((4, 4)), 13)
    assert np.array_equal(p, np.eye(4))
    assert np.array_equal(q, np.eye(4))


def test_pade_degree_one_scalar():
    x = np.array([[0.3 + 0j]])
    p, q = expmod.pade_numerator_denominator(x, 1)
    assert p[0, 0] == pytest.approx(1.15, rel=1e-15)
    assert q[0, 0] == pytest.approx(0.85, rel=1e-15)


def test_pade_13_scalar_matches_exp():
    x = np.array([[0.1 + 0j]])
    p, q = expmod.pade_numerator_denominator(x, 13)
    value = p[0, 0] / q[0, 0]
    # the [13/13] approximant at 0.1 is exact far past double precision, so
    # the computed quotient must sit within a couple of ulps of exp(0.1)
    assert abs(value - math.exp(0.1)) <= 5e-16


def test_degree_validation():
    with pytest.raises(DomainError):
        expmod.pade_numerator_denominator(np.eye(2), 0)
    with pytest.raises(DomainError):
        expmod.select_scaling(np.eye(2), 11)  # no theta threshold for 11


# --- expm ----------------------------------------------------------------------

def test_expm_zero():
    assert np.array_equal(expmod.expm(np.zeros((3, 3))), np.eye(3))


@pytest.mark.parametrize("backend", ["explicit", "irs"])
def test_expm_nilpotent(backend):
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    result = expmod.expm(m, expmod.ExpmConfig(squaring_backend=backend))
    assert np.linalg.norm(result - (np.eye(2) + m), 2) <= 1e-15


@pytest.mark.parametrize("backend", ["explicit", "irs"])
def test_expm_diagonalizable_oracle(backend):
    rng = rng_for(71)
    n = 32
    v = make_ill_conditioned(gen_ginibre(n, rng), 0.5)
    d = np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    v_inv = np.linalg.inv(v)
    m = (v * d[None, :]) @ v_inv
    reference = (v * np.exp(d)[None, :]) @ v_inv
    result = expmod.expm(m, expmod.ExpmConfig(squaring_backend=backend))
    assert rel_err(result, reference) <= 1e-10


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_expm_explicit_overflow_raises_domain_error(dtype):
    # e^800 exceeds both float ranges; the squares overflow instead of
    # returning a non-finite matrix
    m = 800 * np.eye(3, dtype=dtype)
    with pytest.raises(DomainError, match="overflowed"):
        expmod.expm(m, expmod.ExpmConfig(squaring_backend="explicit"))


def test_expm_backend_agreement_on_benign_inputs():
    rng = rng_for(72)
    for _ in range(5):
        m = ginibre(12, rng)
        m *= rng.random() / kernels.spectral_norm(m)
        explicit = expmod.expm(m, expmod.ExpmConfig(squaring_backend="explicit"))
        implicit = expmod.expm(m, expmod.ExpmConfig(squaring_backend="irs"))
        assert rel_err(implicit, explicit) <= 1e-11


def test_expm_s_zero_identical_under_both_backends():
    m = 0.5 * ginibre(6, rng_for(74)) / 6.0
    assert expmod.select_scaling(m) == 0
    explicit = expmod.expm(m, expmod.ExpmConfig(squaring_backend="explicit"))
    implicit = expmod.expm(m, expmod.ExpmConfig(squaring_backend="irs"))
    assert np.array_equal(explicit, implicit)
    forced = expmod.ExpmConfig(squaring_backend="irs", scaling_override=0)
    assert np.array_equal(expmod.expm(20.0 * m, forced),
                          expmod.expm(20.0 * m, expmod.ExpmConfig(scaling_override=0)))


def test_expm_scaling_override_matches_backends():
    rng = rng_for(73)
    m = 20.0 * ginibre(8, rng)
    s = expmod.select_scaling(m)
    assert s > 0
    forced = expmod.expm(m, expmod.ExpmConfig(scaling_override=s))
    default = expmod.expm(m)
    assert np.array_equal(forced, default)


def test_expm_spectral_radius_ceiling():
    rng = rng_for(74)
    n = 16
    v = make_ill_conditioned(gen_ginibre(n, rng), 0.3)
    d = np.exp(2j * np.pi * rng.random(n))  # spectral radius exactly 1
    m = (v * d[None, :]) @ np.linalg.inv(v)
    sv = np.linalg.svd(v, compute_uv=False)
    kappa_v = sv[0] / sv[-1]
    result = expmod.expm(m)
    assert kernels.spectral_norm(result) <= math.e * kappa_v


def test_expm_eigenvalues_track_scalar_exp():
    rng = rng_for(75)
    n = 12
    v = make_ill_conditioned(gen_ginibre(n, rng), 0.8)
    d = np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    v_inv = np.linalg.inv(v)
    m = (v * d[None, :]) @ v_inv
    result = expmod.expm(m)
    recovered = np.diagonal(v_inv @ result @ v)
    assert np.allclose(recovered, np.exp(d), rtol=1e-8)


def test_expm_singular_denominator():
    # the degree-3 denominator evaluates to an exact float zero at this
    # point, so q(M) = diag(0, 1) is singular
    root = 4.644370709252169
    m = np.diag([root, 0.0]).astype(complex)
    with pytest.raises(NumericallySingularError):
        expmod.expm(m, expmod.ExpmConfig(pade_degree=3, scaling_override=0))


def test_expm_config_validation():
    with pytest.raises(DomainError):
        expmod.ExpmConfig(squaring_backend="fast")
    with pytest.raises(DomainError):
        expmod.ExpmConfig(pade_degree=12)
    with pytest.raises(DomainError):
        expmod.ExpmConfig(scaling_override=-1)
