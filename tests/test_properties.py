"""Property-based invariants (hypothesis drives shapes/scalars; matrix
content comes from seeded generators so tolerances stay meaningful)."""

import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pencilpow import conditioning, kernels, qrperturb
from pencilpow.harness.emit import emit_csv, parse_csv
from pencilpow.harness.experiments import TrialRecord
from pencilpow.harness.generators import build_test_pencil, gen_ginibre, gen_haar, sample_spectrum

U64 = 2.0 ** -53


@given(st.floats(min_value=1e-300, max_value=0.999999))
def test_sun_alpha_at_least_one(eps):
    assert qrperturb.sun_alpha(eps) >= 1.0 - 1e-15


@given(
    st.floats(min_value=1e-6, max_value=0.9),
    st.floats(min_value=1.0001, max_value=1.1),
)
def test_sun_alpha_monotone(eps, factor):
    hi = min(eps * factor, 0.999999)
    assert qrperturb.sun_alpha(hi) >= qrperturb.sun_alpha(eps) - 1e-15


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=8))
def test_full_qr_reconstruction_all_shapes(n, extra):
    m = n + extra
    a = gen_ginibre(m, np.random.Generator(np.random.Philox(m * 37 + n)))[:, :n]
    qr = kernels.full_qr(a)
    assert kernels.spectral_norm(qr.Q @ qr.R - a) <= 50 * n * U64 * max(
        kernels.spectral_norm(a), 1e-300
    )
    assert kernels.spectral_norm(qr.Q.conj().T @ qr.Q - np.eye(m)) <= 50 * m * U64


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=100.0),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=1000),
)
def test_kappa_irs_scale_invariant(scale, p, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    a = gen_ginibre(3, rng)
    b = gen_ginibre(3, rng)
    k = conditioning.kappa_irs(a, b, p)
    ks = conditioning.kappa_irs(scale * a, scale * b, p)
    if math.isinf(k):
        assert math.isinf(ks)
    else:
        assert abs(ks - k) <= 1e-12 * k


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=200),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=1.05, max_value=2.0),
)
def test_spectrum_moduli_within_region(seed, r_lo, r_hi):
    d = sample_spectrum("annulus", 20, seed, r_lo=r_lo, r_hi=r_hi)
    mods = np.abs(d)
    assert np.all(mods >= r_lo - 1e-12) and np.all(mods <= r_hi + 1e-12)
    assert np.all(np.abs(sample_spectrum("disk", 20, seed)) <= 1.0 + 1e-15)


def _trapezoid_omega(a, b, nodes):
    """omega's trapezoidal rule from its definition: (pi / N) sum_z (B - z A)^-1 C (B - z A)^-H."""
    c = a @ a.conj().T + b @ b.conj().T
    total = np.zeros_like(c)
    for z in np.exp(2j * np.pi * np.arange(nodes) / nodes):
        x = np.linalg.inv(b - z * a)
        total += x @ c @ x.conj().T
    return np.linalg.norm((np.pi / nodes) * total, 2)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2999), st.booleans())
def test_omega_levels_are_the_trapezoidal_rule(seed, annulus):
    # level k of the doubling is the rule on the 2^k roots of unity, k <= 6, read
    # from level 0 on; the pencil is Ginibre, or (A, A V D V^H) with D in the
    # annulus 1.2 <= |z| <= 2
    rng = np.random.Generator(np.random.Philox(seed))
    n = 1 + seed % 6
    a = gen_ginibre(n, rng)
    if annulus:
        v = gen_haar(n, rng)
        b = build_test_pencil(a, v, sample_spectrum("annulus", n, rng, r_lo=1.2, r_hi=2.0))[0].b
    else:
        b = gen_ginibre(n, rng)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(conditioning, "_QUAD_FIRST_LEVEL", 0)
        levels = list(islice(conditioning._omega_levels(a, b), 7))
    for k, omega in enumerate(levels):
        assert omega == pytest.approx(_trapezoid_omega(a, b, 2 ** k), rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=10))
def test_lebesgue_monotone_pairs(k, step):
    assert qrperturb.lebesgue_constant(k + step) >= qrperturb.lebesgue_constant(k)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.sampled_from(["gaussian", "rank_one", "graded"]),
    st.sampled_from([-1, 0, 1]),
    st.sampled_from([np.complex64, np.complex128]),
    st.integers(min_value=0, max_value=1000),
)
@example(1, 1, "gaussian", 0, np.complex128, 0)
@example(12, 1, "graded", -1, np.complex128, 1)
@example(1, 12, "rank_one", 1, np.complex64, 2)
def test_spectral_norm_matches_svd_sigma_1(m, n, kind, scale_sign, dtype, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    if kind == "rank_one":
        a = np.outer(a[:, 0], a[0, :].conj())
    elif kind == "graded":
        a = a * np.logspace(0, -12, n)[None, :]
    # scales near the ends of each precision's range: 1e+-300 and 1e+-36
    a = (a * (1e300 if dtype == np.complex128 else 1e36) ** scale_sign).astype(dtype)
    u = 2.0 ** -53 if dtype == np.complex128 else 2.0 ** -24
    sigma_1 = np.linalg.svd(a.astype(np.complex128), compute_uv=False)[0]
    # the Gram route and the reference SVD each land within (n + 4) u of sigma_1:
    # n u from the inner products, a few u from the eigensolver and the sqrt
    tol = 2 * (max(m, n) + 4) * u
    assert abs(kernels.spectral_norm(a) - sigma_1) <= tol * sigma_1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.builds(
    TrialRecord,
    trial=st.integers(min_value=0, max_value=3),
    p=st.integers(min_value=0, max_value=3),
    err_irs=st.floats(), err_es=st.floats(), kappa_a_input=st.floats(),
    kappa_ap=st.floats(), sigma_n_ap=st.floats(),
    s_selected=st.none() | st.integers(min_value=0, max_value=60),
), min_size=1, max_size=8))
@example([TrialRecord(trial=0, p=1, err_irs=float("-inf"), kappa_ap=float("inf"))])
def test_csv_round_trip_is_exact(tmp_path_factory, records):
    # repr compares NaN to NaN and tells -0.0 from 0.0
    path = tmp_path_factory.mktemp("csv") / "rt.csv"
    experiment, parsed = parse_csv(emit_csv(records, path, "general_square"))
    assert experiment == "general_square"
    assert list(map(repr, parsed)) == list(map(repr, sorted(records, key=lambda r: (r.trial, r.p))))
