"""Acceptance suite: one test per criterion, each printing a pass line with
its elapsed time and asserting the stated tolerance and runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

from pencilpow import conditioning, kernels, qrperturb, squaring
from pencilpow.harness import experiments as ex
from pencilpow.harness.generators import (
    build_test_pencil,
    gen_ginibre,
    gen_haar,
    rng_from_seed,
    sample_spectrum,
)

U64 = 2.0 ** -53


def _report(num, name, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {num} exceeded runtime budget: {elapsed:.1f}s"
    print(f"ACCEPTANCE {num:02d} PASS {name} [{elapsed:.2f}s / budget {budget:.0f}s]")


def _median_by_p(records, attr):
    by_p = {}
    for r in records:
        v = getattr(r, attr)
        if not math.isnan(v):
            by_p.setdefault(r.p, []).append(v)
    return {p: float(np.median(vals)) for p, vals in by_p.items()}


def test_criterion_01_exact_squaring_identity():
    t0 = time.perf_counter()
    rng = rng_from_seed(1001)
    for _ in range(50):
        while True:
            a = gen_ginibre(8, rng)
            sv = np.linalg.svd(a, compute_uv=False)
            if sv[0] / sv[-1] <= 100.0:
                break
        v = gen_haar(8, rng)
        d = sample_spectrum("annulus", 8, rng, r_lo=0.5, r_hi=1.0)
        pencil, oracle = build_test_pencil(a, v, d)
        run = squaring.irs(pencil.a, pencil.b, 4)
        target = oracle(4)
        err = np.linalg.norm(
            squaring.implicit_to_explicit(run) - target, 2
        ) / np.linalg.norm(target, 2)
        assert err <= 1e-9
    _report(1, "exact squaring identity (50 pencils, n=8, p=4)", t0, 10)


def test_criterion_02_sigma_min_root_formula_vs_dense():
    t0 = time.perf_counter()
    rng = rng_from_seed(1002)
    for trial in range(100):
        n = int(rng.integers(1, 5))
        p = int(rng.integers(1, 4))
        a = gen_ginibre(n, rng)
        b = gen_ginibre(n, rng)
        root = conditioning.sigma_min_mp(a, b, p)
        dense = kernels.smallest_singular(conditioning.build_mp_dense(a, b, p))
        assert abs(root - dense) <= 1e-11 * dense
    _report(2, "sigma_min(M_p) root formula vs dense oracle (100 cases)", t0, 5)


def test_criterion_03_kappa_irs_properties():
    t0 = time.perf_counter()
    rng = rng_from_seed(1003)
    for trial in range(200):
        a = gen_ginibre(4, rng)
        b = gen_ginibre(4, rng)
        p = int(rng.integers(1, 5))
        k = conditioning.kappa_irs(a, b, p)
        assert k >= 1.0 - 1e-12
        assert conditioning.kappa_irs(3 * a, 3 * b, p) == pytest.approx(k, rel=1e-13)
        assert conditioning.kappa_irs(b, a, p) == pytest.approx(k, rel=1e-10)
        # p-independent ceiling: kappa <= ||(A;B)|| / d up to the grid
        # resolution of the distance estimate (the objective is ||B||-Lipschitz)
        d = conditioning.distance_ill_posed(a, b)
        floor = d - kernels.spectral_norm(b) * np.pi / conditioning.GRID_POINTS - 1e-12
        if floor > 0:
            stack = kernels.spectral_norm(np.vstack([a, b]))
            for pp in (1, 2, 4, 6):
                assert conditioning.kappa_irs(a, b, pp) <= stack / floor
    _report(3, "kappa_irs >= 1, scaling, swap, p-ceiling (200 trials)", t0, 30)


def test_criterion_04_complement_alignment():
    t0 = time.perf_counter()
    rng = rng_from_seed(1004)
    for trial in range(1000):
        q = gen_haar(16, rng)
        scale = 10.0 ** rng.uniform(-6, -0.5)
        noise = (rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))) / np.sqrt(2)
        u = kernels.full_qr(q + scale * noise).Q
        w, residual = qrperturb.align_complement(q, u)
        delta = kernels.spectral_norm(q[:, :8] - u[:, :8])
        assert residual <= 4.0 * delta * (1.0 + 1e-6)
        assert kernels.spectral_norm(w.conj().T @ w - np.eye(8)) <= 1e-12
    _report(4, "complement alignment residual <= 4 delta (1000 trials)", t0, 20)


def test_criterion_05_qr_perturbation_certificate():
    t0 = time.perf_counter()
    rng = rng_from_seed(1005)
    violations = 0
    for trial in range(1000):
        a = gen_ginibre(16, rng)[:, :8]
        e = gen_ginibre(16, rng)[:, :8]
        target = 0.5 * rng.random()
        e *= target * kernels.smallest_singular(a) / kernels.spectral_norm(e)
        cert = qrperturb.qr_perturb_certificate(a, e)
        assert cert.valid
        if cert.empirical_w_norm > cert.bound_value + 1e-12:
            violations += 1
    assert violations == 0
    _report(5, "QR perturbation certificate, zero violations (1000 trials)", t0, 30)


def test_criterion_06_lebesgue_and_triangular_norm():
    t0 = time.perf_counter()
    assert qrperturb.lebesgue_constant(0) == 1.0
    for k in range(1, 1001):
        bound = math.log(k) + math.log(math.pi) + (2.0 / math.pi) * (1.0 + 2.0 / k)
        assert qrperturb.lebesgue_constant(k) <= bound
    rng = rng_from_seed(1006)
    for trial in range(1000):
        strict = np.tril(
            (rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))), -1
        )
        tri = strict + np.diag(rng.standard_normal(16))
        lhs, rhs_exact, _ = qrperturb.triangular_norm_check(tri)
        assert lhs <= rhs_exact
    _report(6, "Lebesgue bound k<=1000; triangular norm (1000 trials)", t0, 30)


def test_criterion_07_mp_perturbation():
    t0 = time.perf_counter()
    rng = rng_from_seed(1007)
    for trial in range(200):
        a = gen_ginibre(4, rng)
        b = gen_ginibre(4, rng)
        p = int(rng.integers(1, 4))
        delta = 10.0 ** rng.uniform(-8, -1)
        e = gen_ginibre(4, rng)
        f = gen_ginibre(4, rng)
        e *= delta * rng.random() / kernels.spectral_norm(e)
        f *= delta * rng.random() / kernels.spectral_norm(f)
        lhs = conditioning.sigma_min_mp(a + e, b + f, p)
        assert lhs >= conditioning.sigma_min_mp(a, b, p) - 2 * delta - 1e-10
    _report(7, "sigma_min(M_p) perturbation >= -2 delta (200 trials)", t0, 10)


def test_criterion_08_implicit_beats_explicit_on_toy_pencil():
    t0 = time.perf_counter()
    for conditioning_mode, p_max in (("well", 15), ("ill", 8)):
        config = ex.ExperimentConfig(
            experiment="toy_identity", n=128, trials=20, p_max=p_max,
            conditioning=conditioning_mode, delta=1e-8, seed=1008,
        )
        records = ex.run_square_experiment(config)
        med_irs = _median_by_p(records, "err_irs")
        med_es = _median_by_p(records, "err_es")
        for p in sorted(med_irs):
            if p in med_es:
                assert med_irs[p] <= med_es[p], (
                    f"{conditioning_mode}: median err_irs > err_es at p={p}"
                )
    _report(8, "toy-pencil median ordering, both conditionings (n=128)", t0, 300)


def test_criterion_09_annulus_crossover():
    t0 = time.perf_counter()
    config = ex.ExperimentConfig(
        experiment="general_square", n=128, trials=20, p_max=10,
        spectrum="annulus", seed=1009,
    )
    records = ex.run_square_experiment(config)
    med_irs = _median_by_p(records, "err_irs")
    med_es = _median_by_p(records, "err_es")
    shared = sorted(set(med_irs) & set(med_es))
    crossovers = [
        p_star
        for p_star in shared
        if all(med_es[p] < med_irs[p] for p in shared if p >= p_star)
    ]
    assert crossovers, "no crossover step found"
    _report(9, f"annulus crossover at p*={min(crossovers)} (n=128)", t0, 300)


def test_criterion_10_disk_regularization():
    t0 = time.perf_counter()
    config = ex.ExperimentConfig(
        experiment="condition_evolution", n=128, trials=50, p_max=4,
        spectrum="disk", seed=1010,
    )
    records = ex.run_condition_evolution(config)
    kappa0 = float(np.mean([r.kappa_a_input for r in records if r.p == 1]))
    kappa3 = float(np.mean([r.kappa_ap for r in records if r.p == 3]))
    assert kappa3 < kappa0
    _report(10, f"disk regularization: kappa {kappa0:.1f} -> {kappa3:.1f} at p=3", t0, 300)


def test_criterion_11_expm_backend_comparison():
    t0 = time.perf_counter()
    med_s = {}
    for delta in (1.0, 1e-2, 1e-4):
        config = ex.ExperimentConfig(
            experiment="expm_compare", n=128, trials=20, delta=delta, seed=1011,
        )
        records = ex.run_expm_experiment(config)
        ratios = [r.err_irs / r.err_es for r in records
                  if not math.isnan(r.err_irs) and not math.isnan(r.err_es)]
        med_s[delta] = float(np.median([r.s_selected for r in records]))
        if delta == 1.0:
            assert 0.5 <= float(np.median(ratios)) <= 2.0
        if delta == 1e-2:
            med_irs = float(np.median([r.err_irs for r in records]))
            med_es = float(np.median([r.err_es for r in records]))
            assert med_irs <= med_es
    assert med_s[1.0] <= med_s[1e-2] <= med_s[1e-4]
    _report(11, f"expm backend comparison, median s = {med_s}", t0, 600)


def test_criterion_12_flop_accounting():
    t0 = time.perf_counter()
    rng = rng_from_seed(1012)
    # benign construction keeps A_p invertible at every step, so the count
    # measures the full code path including the final inversion
    g = gen_ginibre(6, rng)
    v = gen_haar(6, rng)
    d = sample_spectrum("annulus", 6, rng, r_lo=0.8, r_hi=1.0)
    pencil, _ = build_test_pencil(g, v, d)
    a, b = pencil.a, pencil.b
    for p in (1, 2, 5):
        with kernels.count_kernels() as es:
            squaring.explicit_squaring(a, b, p)
        assert es == kernels.KernelCounts(matmul=p + 1, qr=0, inv=1)
        with kernels.count_kernels() as irs_counts:
            squaring.implicit_to_explicit(squaring.irs(a, b, p))
        assert irs_counts == kernels.KernelCounts(matmul=2 * p + 1, qr=p, inv=1)
    _report(12, "kernel call counts match ES/IRS identities exactly", t0, 1)


def test_criterion_13_precision_sensitivity_probe():
    t0 = time.perf_counter()
    base = dict(
        experiment="general_square", n=16, trials=1, p_max=4,
        spectrum="annulus", annulus_r_lo=0.5, annulus_r_hi=1.0, seed=1013,
    )
    rec64 = {r.p: r for r in ex.run_square_experiment(
        ex.ExperimentConfig(precision="binary64", **base))}
    rec32 = {r.p: r for r in ex.run_square_experiment(
        ex.ExperimentConfig(precision="binary32", **base))}
    ratio_irs = rec32[4].err_irs / rec64[4].err_irs
    ratio_es = rec32[4].err_es / rec64[4].err_es
    assert 1e4 <= ratio_irs <= 1e10
    assert 1e4 <= ratio_es <= 1e10
    _report(
        13,
        f"binary32/binary64 error ratios at p=4: irs {ratio_irs:.2e}, es {ratio_es:.2e}",
        t0,
        60,
    )
