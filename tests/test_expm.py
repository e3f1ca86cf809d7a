import math

import numpy as np
import pytest

from pencilpow import expm as expmod
from pencilpow import kernels
from pencilpow.errors import DomainError, NumericallySingularError
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


# --- pade --------------------------------------------------------------------

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
