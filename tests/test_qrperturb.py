import math
import tracemalloc

import numpy as np
import pytest

from pencilpow import kernels, qrperturb
from pencilpow.errors import DomainError, NonUnitaryError, NumericallySingularError, ShapeError
from pencilpow.harness.generators import gen_haar

from conftest import ginibre, rng_for


# --- sun_alpha -------------------------------------------------------------

def test_sun_alpha_small_eps_limit():
    assert qrperturb.sun_alpha(1e-12) == pytest.approx(1.0, abs=1e-10)
    assert qrperturb.sun_alpha(1e-9) == pytest.approx(1.0 + 5e-10, rel=1e-12)


def test_sun_alpha_half():
    assert qrperturb.sun_alpha(0.5) == pytest.approx(2.0 * math.log(2.0), rel=1e-14)


def test_sun_alpha_point_nine():
    assert qrperturb.sun_alpha(0.9) == pytest.approx(math.log(10.0) / 0.9, rel=1e-14)


def test_sun_alpha_matches_high_precision_across_cutoff():
    import mpmath

    mpmath.mp.dps = 40
    for eps in (0.999e-8, 1.001e-8, 1e-10, 1e-4):
        exact = float(mpmath.log(1 / (1 - mpmath.mpf(eps))) / mpmath.mpf(eps))
        assert qrperturb.sun_alpha(eps) == pytest.approx(exact, rel=1e-15)


def test_sun_alpha_domain():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(DomainError):
            qrperturb.sun_alpha(bad)


# --- lebesgue_constant -------------------------------------------------------

def test_lebesgue_zero_is_exactly_one():
    assert qrperturb.lebesgue_constant(0) == 1.0


def test_lebesgue_one_against_brute_force_oracle():
    # midpoint rule; 2^16 nodes so the kinks at the kernel zeros leave the
    # oracle itself accurate well past the 1e-8 comparison
    k = 1
    num = 65536
    h = 2 * np.pi / num
    theta = -np.pi + (np.arange(num) + 0.5) * h
    dk = np.sin((k + 0.5) * theta) / np.sin(theta / 2.0)
    oracle = np.sum(np.abs(dk)) * h / (2 * np.pi)
    assert qrperturb.lebesgue_constant(1) == pytest.approx(oracle, rel=1e-8)
    # closed form for k = 1: 1/3 + 2 sqrt(3) / pi
    assert qrperturb.lebesgue_constant(1) == pytest.approx(
        1.0 / 3.0 + 2.0 * math.sqrt(3.0) / math.pi, rel=1e-14
    )


def test_lebesgue_log_bound_to_one_hundred():
    for k in range(1, 101):
        bound = math.log(k) + math.log(math.pi) + (2.0 / math.pi) * (1.0 + 2.0 / k)
        assert qrperturb.lebesgue_constant(k) <= bound


def test_lebesgue_monotone():
    values = [qrperturb.lebesgue_constant(k) for k in range(1, 30)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_lebesgue_domain():
    for bad in (-1, 2.5, "3", None):
        with pytest.raises(DomainError):
            qrperturb.lebesgue_constant(bad)
    assert qrperturb.lebesgue_constant(np.int64(5)) == qrperturb.lebesgue_constant(5)


def test_lebesgue_memory_is_bounded_for_large_k():
    # Fejer's sum runs in fixed chunks: no length-k array is formed
    tracemalloc.start()
    try:
        value = qrperturb.lebesgue_constant(2 ** 22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert value > qrperturb.lebesgue_constant(2 ** 16)


def test_lebesgue_against_mpmath():
    # Fejer's sum L_k = 1/(2k+1) + (2/pi) sum_j tan(pi j/(2k+1)) / j at 40 digits
    import mpmath

    mpmath.mp.dps = 40
    for k in (1, 2, 30, 101, 300, 1000, 4097):
        m = mpmath.mpf(k)
        exact = 1 / (2 * m + 1) + 2 / mpmath.pi * mpmath.fsum(
            mpmath.tan(mpmath.pi * j / (2 * m + 1)) / j for j in range(1, k + 1))
        assert qrperturb.lebesgue_constant(k) == pytest.approx(float(exact), rel=1e-15, abs=0)


# --- triangular_norm_check -----------------------------------------------------

def test_triangular_identity():
    lhs, rhs_exact, rhs_loose = qrperturb.triangular_norm_check(np.eye(4, dtype=complex))
    assert lhs == pytest.approx(1.0)
    assert rhs_exact >= 2.0  # 2 * (1/2 + L_5) with L_5 > 1
    assert rhs_loose >= rhs_exact


def test_triangular_zero():
    lhs, rhs_exact, rhs_loose = qrperturb.triangular_norm_check(np.zeros((3, 3), dtype=complex))
    assert lhs == rhs_exact == rhs_loose == 0.0


def test_triangular_random_sweep():
    rng = rng_for(61)
    for _ in range(200):
        tri = np.tril(ginibre(16, rng), -1) + np.diag(rng.standard_normal(16))
        lhs, rhs_exact, rhs_loose = qrperturb.triangular_norm_check(tri)
        assert lhs <= rhs_exact
        assert rhs_exact <= rhs_loose


def test_triangular_validation():
    with pytest.raises(DomainError):
        qrperturb.triangular_norm_check(np.triu(np.ones((3, 3), dtype=complex)))
    bad_diag = np.tril(np.ones((3, 3), dtype=complex))
    bad_diag[1, 1] = 1j
    with pytest.raises(DomainError):
        qrperturb.triangular_norm_check(bad_diag)


def hilbert_truncation(n):
    """i * (lower-triangular truncation of the discrete Hilbert matrix).

    The full kernel has bounded spectral norm while its triangular half
    grows like log(n): the standard witness that the log factor in the
    triangular-norm inequality is unavoidable.
    """
    idx = np.arange(n)
    diff = idx[:, None] - idx[None, :]
    with np.errstate(divide="ignore"):
        kernel = np.where(diff != 0, 1.0 / np.where(diff == 0, 1, diff), 0.0)
    return 1j * np.tril(kernel, -1)


def test_triangular_ratio_grows_on_hilbert_truncations():
    ratios = []
    for n in (8, 32, 128):
        tri = hilbert_truncation(n)
        lhs, _, _ = qrperturb.triangular_norm_check(tri)
        sym = kernels.spectral_norm(tri + tri.conj().T)
        ratios.append(lhs / sym)
    assert ratios[0] < ratios[1] < ratios[2]


# --- align_complement ------------------------------------------------------------

def test_align_identical_inputs():
    q = gen_haar(8, rng_for(62))
    w, residual = qrperturb.align_complement(q, q)
    assert residual <= 1e-13
    assert kernels.spectral_norm(w.conj().T @ w - np.eye(4)) <= 1e-13


def test_align_absorbs_gauge():
    rng = rng_for(63)
    u = gen_haar(8, rng)
    g = gen_haar(4, rng)
    u_gauged = u.copy()
    u_gauged[:, 4:] = u[:, 4:] @ g
    w, residual = qrperturb.align_complement(u, u_gauged)
    assert residual <= 1e-12


def test_align_bound_on_perturbed_unitary():
    rng = rng_for(64)
    q = gen_haar(8, rng)
    u = kernels.full_qr(q + 1e-3 * ginibre(8, rng)).Q
    w, residual = qrperturb.align_complement(q, u)
    delta = kernels.spectral_norm(q[:, :4] - u[:, :4])
    assert residual <= 4.0 * delta * (1 + 1e-6)
    assert kernels.spectral_norm(w.conj().T @ w - np.eye(4)) <= 100 * 4 * 2.0 ** -53


def test_align_randomized_sweep():
    rng = rng_for(65)
    for _ in range(100):
        q = gen_haar(8, rng)
        scale = 10.0 ** rng.uniform(-6, -1)
        u = kernels.full_qr(q + scale * ginibre(8, rng)).Q
        w, residual = qrperturb.align_complement(q, u)
        delta = kernels.spectral_norm(q[:, :4] - u[:, :4])
        assert residual <= 4.0 * delta * (1 + 1e-6)
        assert kernels.spectral_norm(w.conj().T @ w - np.eye(4)) <= 1e-12


def test_align_rejects_differing_and_odd_sizes():
    with pytest.raises(ShapeError, match="sizes differ"):
        qrperturb.align_complement(np.eye(2), np.eye(4))
    with pytest.raises(ShapeError, match="expects even size, got 3"):
        qrperturb.align_complement(np.eye(3), np.eye(3))


def test_align_rejects_non_unitary():
    with pytest.raises(NonUnitaryError) as exc:
        qrperturb.align_complement(2 * np.eye(4, dtype=complex), np.eye(4, dtype=complex))
    assert exc.value.defect == pytest.approx(3.0, rel=1e-12)


# --- qr_perturb_certificate --------------------------------------------------------

def test_certificate_zero_perturbation():
    a = ginibre(16, rng_for(66))[:, :8]
    cert = qrperturb.qr_perturb_certificate(a, np.zeros_like(a))
    assert cert.valid
    assert cert.bound_value == 0.0
    assert cert.empirical_w_norm <= 1e-13


def test_certificate_identity_diagonal():
    n = 4
    a = np.eye(n, dtype=complex)
    cert = qrperturb.qr_perturb_certificate(a, 1e-4 * np.eye(n, dtype=complex))
    # both Q factors are exactly I
    assert cert.empirical_w_norm <= 1e-15
    expected = (2 * math.log(n + 1) + 7) * qrperturb.sun_alpha(1e-4) * 1e-4
    assert cert.bound_value == pytest.approx(expected, rel=1e-12)


def test_certificate_randomized_sweep():
    rng = rng_for(67)
    for _ in range(200):
        a = ginibre(16, rng)[:, :8]
        e = ginibre(16, rng)[:, :8]
        target = 0.5 * rng.random()
        e *= target * kernels.smallest_singular(a) / kernels.spectral_norm(e)
        cert = qrperturb.qr_perturb_certificate(a, e)
        assert cert.valid
        assert cert.alpha_arg <= 0.5 + 1e-12
        assert cert.empirical_w_norm <= cert.bound_value + 1e-12


def test_certificate_invalid_when_hypothesis_fails():
    a = np.eye(3, dtype=complex)
    cert = qrperturb.qr_perturb_certificate(a, 2.0 * np.eye(3, dtype=complex))
    assert not cert.valid
    assert math.isinf(cert.bound_value)


def test_certificate_rank_deficient_error():
    a = np.zeros((4, 2), dtype=complex)
    a[0, 0] = 1.0
    with pytest.raises(NumericallySingularError):
        qrperturb.qr_perturb_certificate(a, np.zeros_like(a))


def test_certificate_rank_deficient_complex64_reports_numpys_sigma_min():
    rng = rng_for(58)
    a = (ginibre(6, rng, 3) @ ginibre(3, rng, 4)).astype(np.complex64)  # rank 3
    with pytest.raises(NumericallySingularError) as exc:
        qrperturb.qr_perturb_certificate(a, np.zeros_like(a))
    assert exc.value.sigma_min == np.linalg.svd(a, compute_uv=False)[-1]


def test_certificate_rejects_differing_shapes():
    with pytest.raises(ShapeError, match="a and e differ in shape"):
        qrperturb.qr_perturb_certificate(np.eye(3), np.eye(2))


@pytest.mark.parametrize("shape", [(3, 0), (0, 0), (2, 3)])
def test_certificate_rejects_empty_and_wide_shapes(shape):
    a = np.zeros(shape, dtype=complex)
    with pytest.raises(ShapeError, match="requires m >= n >= 1"):
        qrperturb.qr_perturb_certificate(a, a)
