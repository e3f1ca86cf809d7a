"""Self-contained invariant suite behind ``pencilpow check``.

Each check is a small, fast (< ~1 s) verification of a library invariant at
reduced scale. The full evidence lives in the pytest suite; this runner
exists so an installed copy can vouch for itself without test sources.
"""

import math

import numpy as np

from .. import kernels
from ..conditioning import (
    build_mp_dense,
    condition_chain_check,
    distance_ill_posed,
    kappa_irs,
    sigma_min_mp,
)
from ..expm import ExpmConfig, expm
from ..qrperturb import (
    align_complement,
    lebesgue_constant,
    qr_perturb_certificate,
    sun_alpha,
    triangular_norm_check,
)
from ..squaring import implicit_to_explicit, irs
from .generators import build_test_pencil, gen_ginibre, gen_haar, rng_from_seed, sample_spectrum

__all__ = ["run_all_checks", "CHECKS"]


def _rand_pencil(n, rng, r_lo=0.5, r_hi=1.0):
    a = gen_ginibre(n, rng)
    v = gen_haar(n, rng)
    d = sample_spectrum("annulus", n, rng, r_lo=r_lo, r_hi=r_hi)
    return build_test_pencil(a, v, d)


def check_qr_reconstruction():
    rng = rng_from_seed(101)
    a = gen_ginibre(12, rng)[:, :6]
    qr = kernels.full_qr(a)
    n = a.shape[1]
    u = 2.0 ** -53
    assert kernels.spectral_norm(qr.Q @ qr.R - a) <= 50 * n * u * kernels.spectral_norm(a)
    assert kernels.spectral_norm(qr.Q.conj().T @ qr.Q - np.eye(12)) <= 50 * 12 * u
    diag = np.diagonal(qr.R)
    assert np.all(np.imag(diag) == 0) and np.all(np.real(diag) >= 0)
    assert np.all(np.tril(qr.R, -1) == 0)


def check_weyl_singular_values():
    rng = rng_from_seed(102)
    m1 = gen_ginibre(8, rng)
    m2 = gen_ginibre(8, rng)
    s1 = np.linalg.svd(m1, compute_uv=False)
    s2 = np.linalg.svd(m2, compute_uv=False)
    gap = kernels.spectral_norm(m1 - m2)
    slack = 10 * 8 * 2.0 ** -53 * (s1[0] + s2[0])
    assert np.all(np.abs(s1 - s2) <= gap + slack)


def check_squaring_identity():
    rng = rng_from_seed(103)
    pencil, oracle = _rand_pencil(8, rng)
    run = irs(pencil.a, pencil.b, 4)
    target = oracle(4)
    err = kernels.spectral_norm(implicit_to_explicit(run) - target) / kernels.spectral_norm(target)
    assert err <= 1e-9


def check_sigma_min_mp_dense_agreement():
    rng = rng_from_seed(104)
    a = gen_ginibre(3, rng)
    b = gen_ginibre(3, rng)
    root = sigma_min_mp(a, b, 2)
    dense = kernels.smallest_singular(build_mp_dense(a, b, 2))
    assert abs(root - dense) <= 1e-11 * dense


def check_kappa_irs_properties():
    rng = rng_from_seed(105)
    a = gen_ginibre(4, rng)
    b = gen_ginibre(4, rng)
    k1 = kappa_irs(a, b, 2)
    assert k1 >= 1.0 - 1e-12
    assert abs(kappa_irs(3 * a, 3 * b, 2) - k1) <= 1e-13 * k1
    assert abs(kappa_irs(b, a, 2) - k1) <= 1e-10 * k1


def check_mp_perturbation():
    rng = rng_from_seed(106)
    a = gen_ginibre(4, rng)
    b = gen_ginibre(4, rng)
    delta = 1e-3
    e = gen_ginibre(4, rng)
    f = gen_ginibre(4, rng)
    e *= delta / kernels.spectral_norm(e)
    f *= delta / kernels.spectral_norm(f)
    assert sigma_min_mp(a + e, b + f, 2) >= sigma_min_mp(a, b, 2) - 2 * delta - 1e-10


def check_condition_chain():
    rng = rng_from_seed(107)
    pencil, _ = _rand_pencil(3, rng, r_lo=0.5, r_hi=0.8)
    report = condition_chain_check(pencil.a, pencil.b, 2)
    assert report.chain_ok


def check_distance_vs_mp():
    rng = rng_from_seed(108)
    a = gen_ginibre(3, rng)
    b = gen_ginibre(3, rng)
    for p in (1, 2, 3):
        assert distance_ill_posed(a, b) <= sigma_min_mp(a, b, p) + 1e-10


def check_align_complement():
    rng = rng_from_seed(109)
    q = gen_haar(16, rng)
    u = kernels.full_qr(q + 1e-3 * gen_ginibre(16, rng)).Q
    w, residual = align_complement(q, u)
    delta = kernels.spectral_norm(q[:, :8] - u[:, :8])
    assert residual <= 4 * delta * (1 + 1e-6)
    assert kernels.spectral_norm(w.conj().T @ w - np.eye(8)) <= 1e-12


def check_qr_certificate():
    rng = rng_from_seed(110)
    for _ in range(50):
        a = gen_ginibre(16, rng)[:, :8]
        e = gen_ginibre(16, rng)[:, :8]
        e *= 0.4 / (kernels.spectral_norm(e) / kernels.smallest_singular(a))
        cert = qr_perturb_certificate(a, e)
        assert cert.valid and cert.empirical_w_norm <= cert.bound_value + 1e-12


def check_sun_alpha():
    assert abs(sun_alpha(0.5) - 2 * math.log(2)) < 1e-15
    assert abs(sun_alpha(1e-12) - 1.0) < 1e-9


def check_lebesgue():
    assert lebesgue_constant(0) == 1.0
    for k in (1, 5, 50):
        bound = math.log(k) + math.log(math.pi) + (2 / math.pi) * (1 + 2 / k)
        assert lebesgue_constant(k) <= bound


def check_triangular_inequality():
    rng = rng_from_seed(111)
    tri = np.tril(gen_ginibre(16, rng), -1) + np.diag(rng.standard_normal(16))
    lhs, rhs_exact, rhs_loose = triangular_norm_check(tri)
    assert lhs <= rhs_exact <= rhs_loose


def check_expm_backends():
    rng = rng_from_seed(112)
    m = gen_ginibre(16, rng)
    m *= 0.8 / kernels.spectral_norm(m)
    explicit = expm(m, ExpmConfig(squaring_backend="explicit"))
    implicit = expm(m, ExpmConfig(squaring_backend="irs"))
    rel = kernels.spectral_norm(explicit - implicit) / kernels.spectral_norm(explicit)
    assert rel <= 1e-11


def check_flop_identities():
    rng = rng_from_seed(113)
    a = gen_ginibre(6, rng)
    b = gen_ginibre(6, rng)
    p = 3
    from ..squaring import explicit_squaring

    with kernels.count_kernels() as es_counts:
        explicit_squaring(a, b, p)
    assert (es_counts.inv, es_counts.matmul, es_counts.qr) == (1, p + 1, 0)
    with kernels.count_kernels() as irs_counts:
        implicit_to_explicit(irs(a, b, p))
    assert (irs_counts.inv, irs_counts.matmul, irs_counts.qr) == (1, 2 * p + 1, p)


CHECKS = [
    ("qr reconstruction / orthogonality / phase normalization", check_qr_reconstruction),
    ("singular value stability (Weyl)", check_weyl_singular_values),
    ("implicit squaring identity at p=4", check_squaring_identity),
    ("sigma_min(M_p): root formula vs dense", check_sigma_min_mp_dense_agreement),
    ("kappa_irs >= 1, scale invariance, swap symmetry", check_kappa_irs_properties),
    ("sigma_min(M_p) perturbation bound", check_mp_perturbation),
    ("conditioning inequality chain", check_condition_chain),
    ("distance to ill-posedness below sigma_min(M_p)", check_distance_vs_mp),
    ("complement alignment bound", check_align_complement),
    ("QR perturbation certificate sweep", check_qr_certificate),
    ("sun alpha values and series guard", check_sun_alpha),
    ("Lebesgue constant bound", check_lebesgue),
    ("triangular norm inequality", check_triangular_inequality),
    ("expm backend agreement", check_expm_backends),
    ("kernel call-count identities", check_flop_identities),
]


def run_all_checks():
    """Run every check, printing one PASS or FAIL line each; True when all pass."""
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # report and continue
            failures += 1
            print(f"FAIL  {name}: {exc}")
        else:
            print(f"PASS  {name}")
    if failures:
        print(f"{failures} of {len(CHECKS)} checks failed")
    return failures == 0
