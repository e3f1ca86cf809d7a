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


def test_select_scaling_empty_matrix():
    # the empty matrix has no entry to scale by; its 1-norm is 0
    assert expmod.select_scaling(np.zeros((0, 0))) == 0


def test_select_scaling_under_threshold():
    assert expmod.select_scaling(np.diag([4.0, 1.0]).astype(complex)) == 0


def test_select_scaling_norm_hundred():
    # 100 / 32 = 3.125 <= theta_13 < 100 / 16
    m = np.diag([100.0, 1.0]).astype(complex)
    assert expmod.select_scaling(m) == 5


def test_select_scaling_threshold():
    # theta_13 = 5.37: a 1-norm of 5 needs no scaling, 6 needs one halving
    assert expmod.select_scaling(np.diag([5.0]).astype(complex)) == 0
    assert expmod.select_scaling(np.diag([6.0]).astype(complex)) == 1


def _loop_scaling(m):
    # the plain search over s, for 1-norms that do not overflow
    norm1 = float(np.linalg.norm(m, 1))
    s = 0
    while norm1 / 2.0 ** s > expmod._THETA_13:
        s += 1
    return s


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_select_scaling_matches_the_plain_search(dtype):
    rng = rng_for(76)
    # norms exactly at theta 2^k, one ulp either side of it, and random
    for k in (-3, 0, 1, 7, 40):
        at = dtype(expmod._THETA_13 * 2.0 ** k).real
        for norm in (at, np.nextafter(at, 0), np.nextafter(at, np.inf)):
            m = np.diag([norm, norm / 3]).astype(dtype)
            assert expmod.select_scaling(m) == _loop_scaling(m)
    for _ in range(5):
        m = (ginibre(5, rng) * 10.0 ** rng.uniform(-20, 20)).astype(dtype)
        assert expmod.select_scaling(m) == _loop_scaling(m)


@pytest.mark.parametrize("backend", ["explicit", "irs"])
@pytest.mark.parametrize("dtype, modulus", [(np.complex128, 1e308), (np.complex64, 1e38)])
def test_expm_on_entries_near_overflow_is_finite_or_structured(dtype, modulus, backend):
    # the 1-norm of these matrices overflows; s still comes out finite
    m = np.full((4, 4), modulus * np.exp(0.3j), dtype=dtype)
    assert np.all(np.isfinite(m))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # scaling by 2^-60 is exact and takes 60 squarings off
        assert expmod.select_scaling(m) == _loop_scaling(m * dtype(2.0 ** -60)) + 60
        try:
            result = expmod.expm(m, expmod.ExpmConfig(squaring_backend=backend))
        except PencilPowError:
            return
    assert np.all(np.isfinite(result))


# --- pade --------------------------------------------------------------------

def _horner_pade(x):
    # the two Horner recurrences in X^2 the even/odd scheme replaced
    c = expmod._pade_coefficients()
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
    # polynomials, for ||X||_1 at theta_13 and below
    rng = rng_for(80)
    u = 2.0 ** -24 if dtype == np.complex64 else 2.0 ** -53
    b = expmod._pade_coefficients()
    for scale in (expmod._THETA_13, expmod._THETA_13 / 8):
        x = ginibre(16, rng)
        x = (x * (scale / np.linalg.norm(x, 1))).astype(dtype)
        tol = 10 * u * sum(bk * scale ** k for k, bk in enumerate(b))
        for got, want in zip(expmod.pade_numerator_denominator(x), _horner_pade(x)):
            assert got.dtype == dtype
            assert np.linalg.norm(got - want, 1) <= tol


def test_pade_product_counts():
    x = ginibre(6, rng_for(81)) / 6.0
    with kernels.count_kernels() as counts:
        expmod.pade_numerator_denominator(x)
    assert counts == kernels.KernelCounts(matmul=6)  # 14 by the Horner recurrences


def test_expm_at_s_zero_counts():
    m = 0.5 * ginibre(6, rng_for(74)) / 6.0
    assert expmod.select_scaling(m) == 0
    for backend in ("explicit", "irs"):
        with kernels.count_kernels() as counts:
            expmod.expm(m, expmod.ExpmConfig(squaring_backend=backend))
        assert counts == kernels.KernelCounts(matmul=7, inv=1)


@pytest.mark.parametrize("backend", ["explicit", "irs"])
@pytest.mark.parametrize("dtype, scale", [(np.complex128, 1e100), (np.complex64, 1e20)])
def test_pade_overflow_names_the_stage(dtype, scale, backend):
    # X^2 (complex64) or X^4 (complex128) overflows; the input itself is finite
    x = scale * np.eye(3, dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="pade"):
            expmod.pade_numerator_denominator(x)
        # expm scales X below theta_13 first, so its Padé stage stays finite
        # and the structured failure names the squaring stage after it
        with pytest.raises(PencilPowError) as info:
            expmod.expm(x, expmod.ExpmConfig(squaring_backend=backend))
    assert "pade" not in str(info.value)


def test_pade_zero_input_gives_identity():
    p, q = expmod.pade_numerator_denominator(np.zeros((4, 4)))
    assert np.array_equal(p, np.eye(4))
    assert np.array_equal(q, np.eye(4))


def test_pade_13_scalar_matches_exp():
    x = np.array([[0.1 + 0j]])
    p, q = expmod.pade_numerator_denominator(x)
    value = p[0, 0] / q[0, 0]
    # the [13/13] approximant at 0.1 is exact far past double precision, so
    # the computed quotient must sit within a couple of ulps of exp(0.1)
    assert abs(value - math.exp(0.1)) <= 5e-16


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
    # q(X) is nonsingular for ||X||_1 <= theta_13, but the final A_s of the
    # implicit run is not: e^40 and e^0 differ by more than 1 / u
    m = np.diag([40.0, 0.0])
    with pytest.raises(NumericallySingularError):
        expmod.expm(m, expmod.ExpmConfig(squaring_backend="irs"))


def test_expm_config_validation():
    with pytest.raises(DomainError):
        expmod.ExpmConfig(squaring_backend="fast")
    # a config that is not an ExpmConfig is refused at s = 0 and at s >= 1 alike
    for scale in (0.1, 30.0):
        for config in ("irs", "explicit", {"squaring_backend": "irs"}, 0.5):
            with pytest.raises(DomainError, match="ExpmConfig"):
                expmod.expm(scale * np.eye(3), config)
