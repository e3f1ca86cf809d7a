import math
import tracemalloc

import numpy as np
import pytest

from pencilpow import conditioning, kernels
from pencilpow.errors import ConvergenceError, DomainError, NearSingularNodeError, ShapeError
from pencilpow.harness.generators import build_test_pencil, gen_ginibre, gen_haar

from conftest import rng_for


def scalar(x):
    return np.array([[x]], dtype=complex)


# --- build_mp_dense ---------------------------------------------------------

def test_mp_dense_p1_zero_b():
    m = conditioning.build_mp_dense(scalar(1.0), scalar(0.0), 1)
    assert np.array_equal(m, np.array([[-1, 0], [0, -1]], dtype=complex))


def test_mp_dense_p1_scalar_ones():
    m = conditioning.build_mp_dense(scalar(1.0), scalar(1.0), 1)
    assert np.array_equal(m, np.array([[-1, -1], [1, -1]], dtype=complex))
    # 2x2 singular values by hand: M^H M = 2 I, so both are sqrt(2)
    assert kernels.smallest_singular(m) == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_mp_dense_p2_structure():
    a, b = scalar(2.0), scalar(3.0)
    m = conditioning.build_mp_dense(a, b, 2)
    expected = np.array(
        [
            [-2, 0, 0, -3],
            [3, -2, 0, 0],
            [0, 3, -2, 0],
            [0, 0, 3, -2],
        ],
        dtype=complex,
    )
    assert np.array_equal(m, expected)


def test_mp_dense_size_guard():
    with pytest.raises(ShapeError):
        conditioning.build_mp_dense(np.eye(64), np.eye(64), 7)  # 128 * 64 > 4096


# --- sigma_min_mp ---------------------------------------------------------------

def test_sigma_min_mp_identity_pencil():
    for p in (1, 2, 4):
        assert conditioning.sigma_min_mp(np.eye(3), np.zeros((3, 3)), p) == pytest.approx(1.0)


def test_sigma_min_mp_scalar_roots():
    # p = 1: roots of -1 are +/- i, so sigma = |-1 +/- i| = sqrt(2)
    assert conditioning.sigma_min_mp(scalar(1.0), scalar(1.0), 1) == pytest.approx(
        math.sqrt(2.0), rel=1e-14
    )


def test_sigma_min_mp_matches_dense_oracle():
    rng = rng_for(41)
    a = gen_ginibre(3, rng)
    b = gen_ginibre(3, rng)
    root = conditioning.sigma_min_mp(a, b, 2)
    dense = kernels.smallest_singular(conditioning.build_mp_dense(a, b, 2))
    assert abs(root - dense) <= 1e-12 * dense


def test_sigma_min_mp_memory_is_bounded(monkeypatch):
    # all 2^11 shifted pencils of order 32 at once, with their shifted copies of B,
    # would peak near 64 MiB; batches of _BATCH_ENTRIES entries stay far below
    rng = rng_for(50)
    a, b = gen_ginibre(32, rng), gen_ginibre(32, rng)
    tracemalloc.start()
    try:
        conditioning.sigma_min_mp(a, b, 11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20
    # LAPACK factors each pencil on its own, so batches of 37 give the one-batch value
    a, b = gen_ginibre(4, rng), gen_ginibre(4, rng)
    whole = conditioning.sigma_min_mp(a, b, 6)
    monkeypatch.setattr(conditioning, "_BATCH_ENTRIES", 37 * a.size)
    assert conditioning.sigma_min_mp(a, b, 6) == whole


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_root_formula_refuses_p_past_its_cap(dtype):
    # numpy would ask for 8 TiB of nodes at p = 40, and np.arange(2^64) is refused
    # outright; each entry point refuses first, naming itself
    a, b = np.eye(2, dtype=dtype), np.diag([2.0, 0.5]).astype(dtype)
    for func in (conditioning.sigma_min_mp, conditioning.kappa_irs,
                 conditioning.condition_chain_check):
        for p in (40, 64, 25):
            refusal = rf"{func.__name__} sweeps 2\^p roots of -1 and requires p <= 24, got {p}"
            with pytest.raises(ShapeError, match=refusal):
                func(a, b, p)


# --- kappa_irs -------------------------------------------------------------------

def test_kappa_identity_pencil():
    assert conditioning.kappa_irs(np.eye(3), np.zeros((3, 3)), 2) == pytest.approx(1.0)


def test_kappa_scale_invariance():
    rng = rng_for(42)
    a = gen_ginibre(4, rng)
    b = gen_ginibre(4, rng)
    k = conditioning.kappa_irs(a, b, 2)
    assert conditioning.kappa_irs(3 * a, 3 * b, 2) == pytest.approx(k, rel=1e-13)


def test_kappa_swap_symmetry():
    rng = rng_for(43)
    a = gen_ginibre(4, rng)
    b = gen_ginibre(4, rng)
    k = conditioning.kappa_irs(a, b, 2)
    assert conditioning.kappa_irs(b, a, 2) == pytest.approx(k, rel=1e-10)


def test_kappa_infinite_on_root_eigenvalue():
    # pencil (e^{i pi/2} I, I) is singular exactly at the first 2nd root of -1
    a = np.exp(1j * np.pi / 2) * np.eye(2)
    b = np.eye(2, dtype=complex)
    assert math.isinf(conditioning.kappa_irs(a, b, 1))


def test_kappa_at_least_one():
    rng = rng_for(44)
    for _ in range(20):
        a = gen_ginibre(3, rng)
        b = gen_ginibre(3, rng)
        assert conditioning.kappa_irs(a, b, 2) >= 1.0 - 1e-12


def test_kappa_monotone_in_p_up_to_grid_wobble():
    # the p and p+1 root grids interleave at distance pi / 2^{p+1}, so
    # sigma_min can move by at most ||B||_2 pi / 2^{p+1} between levels
    rng = rng_for(45)
    for _ in range(10):
        a = gen_ginibre(4, rng)
        b = gen_ginibre(4, rng)
        norm_b = kernels.spectral_norm(b)
        stack = kernels.spectral_norm(np.vstack([a, b]))
        for p in (1, 2, 3, 4):
            k_p = conditioning.kappa_irs(a, b, p)
            k_next = conditioning.kappa_irs(a, b, p + 1)
            wobble = norm_b * np.pi / 2 ** (p + 1)
            tol = k_p * wobble * k_p / stack
            assert k_next >= k_p - tol


def test_kappa_p_independent_ceiling():
    rng = rng_for(46)
    for _ in range(10):
        a = gen_ginibre(4, rng)
        b = gen_ginibre(4, rng)
        d = conditioning.distance_ill_posed(a, b)
        floor = d - kernels.spectral_norm(b) * np.pi / conditioning.GRID_POINTS - 1e-12
        if floor <= 0:
            continue
        stack = kernels.spectral_norm(np.vstack([a, b]))
        for p in (1, 3, 6):
            assert conditioning.kappa_irs(a, b, p) <= stack / floor


# --- distance_ill_posed -----------------------------------------------------------

def test_distance_identity_pencil():
    assert conditioning.distance_ill_posed(np.eye(3), np.zeros((3, 3))) == pytest.approx(1.0)


def test_distance_scalar_eigenvalue_on_circle():
    assert conditioning.distance_ill_posed(scalar(1.0), scalar(1.0)) <= 1e-8


def _svd_shapes(monkeypatch):
    """The list of shapes `kernels._singular_values` is called on from here on."""
    shapes = []
    original = kernels._singular_values

    def counting(x, *rest):
        shapes.append(x.shape)
        return original(x, *rest)

    monkeypatch.setattr(kernels, "_singular_values", counting)
    return shapes


def test_distance_sweeps_the_grid_once(monkeypatch):
    # d is the grid's minimum alone: one batch of GRID_POINTS pencils, no refinement
    rng = rng_for(52)
    a = gen_ginibre(3, rng)
    b = gen_ginibre(3, rng)
    shapes = _svd_shapes(monkeypatch)
    conditioning.distance_ill_posed(a, b)
    assert shapes == [(conditioning.GRID_POINTS, 3, 3)]


def test_distance_below_sigma_min_mp():
    # for p <= 7 the 2^p-th roots of -1 are, bit for bit, nodes of the grid of
    # GRID_POINTS = 2^8 roots of unity, so d <= sigma_min(M_p) needs no slack
    rng = rng_for(47)
    for dtype in (np.complex64, np.complex128):
        for _ in range(5):
            a = gen_ginibre(3, rng).astype(dtype)
            b = gen_ginibre(3, rng).astype(dtype)
            d = conditioning.distance_ill_posed(a, b)
            for p in range(1, 8):
                assert d <= conditioning.sigma_min_mp(a, b, p), (dtype, p)
    grid = conditioning._nodes(conditioning.GRID_POINTS, np.arange(conditioning.GRID_POINTS))
    for p in range(1, 8):
        roots = conditioning._nodes(2 ** p, np.arange(2 ** p) + 0.5)
        assert np.isin(roots, grid).all()


# --- omega_malyshev ----------------------------------------------------------------

def test_omega_scalar_cases():
    assert conditioning.omega_malyshev(scalar(1.0), scalar(0.0)) == pytest.approx(np.pi, rel=1e-10)
    assert conditioning.omega_malyshev(scalar(0.0), scalar(1.0)) == pytest.approx(np.pi, rel=1e-10)


def test_omega_near_singular_node_error():
    cases = [
        (scalar(1.0), scalar(1.0), 0.0),
        # singular only at phi = pi/2, so naming -pi/2 or 3 pi/2 maps phi wrongly
        (scalar(1.0), scalar(1j), np.pi / 2),
        # singular at pi/2 and at pi: the first node in phi order is named
        (np.eye(2), np.diag([1j, -1.0]), np.pi / 2),
    ]
    for a, b, phi in cases:
        for dtype in (np.complex64, np.complex128):
            with pytest.raises(NearSingularNodeError) as exc:
                conditioning.omega_malyshev(a.astype(dtype), b.astype(dtype))
            assert exc.value.phi == pytest.approx(phi)


def test_omega_names_the_first_flagged_node_of_the_sweep():
    # an eigenvalue on the unit circle at node m of the first level (512 nodes):
    # the screen and its coset search name the node a sweep of that level names
    for n in (2, 8, 32):
        for m in (0, 1, 128, 200, 511):
            rng = rng_for(100 * n + m)
            a, v = gen_ginibre(n, rng), gen_haar(n, rng)
            d = 0.5 * np.exp(2j * np.pi * rng.random(n))
            d[0] = np.exp(2j * np.pi * m / 512)
            b = build_test_pencil(a, v, d)[0].b
            for dtype in (np.complex64, np.complex128):
                x, y, _ = conditioning._validated(a.astype(dtype), b.astype(dtype))
                phis = (2.0 * np.pi / 512) * np.arange(512)
                sigma = conditioning._shifted_sigma_n(x, y, -phis)
                stack_norm = kernels.spectral_norm(np.vstack([x, y]))
                flagged = np.flatnonzero(kernels._rank_deficient(sigma, stack_norm, x))
                if flagged.size:
                    with pytest.raises(NearSingularNodeError) as exc:
                        conditioning.omega_malyshev(x, y)
                    assert exc.value.phi == phis[flagged[0]], (n, m, dtype)


def test_omega_factors_each_node_once(monkeypatch):
    # the integrand of (I, 0) is constant, so the rule settles at level 10, the
    # first one compared with level 9: the pencils B_k - A_k of levels 0, 9 and
    # 10 take one SVD each, which clears all of their nodes without factoring them
    matrices = []
    original = kernels._singular_values

    def counting(x):
        matrices.append(1 if x.ndim == 2 else x.shape[0])
        return original(x)

    monkeypatch.setattr(kernels, "_singular_values", counting)
    assert conditioning.omega_malyshev(np.eye(1), np.zeros((1, 1))) == np.pi
    assert matrices == [1] * 3


def test_omega_convergence_error_after_the_last_doubling(monkeypatch):
    # an eigenvalue 2^(3 - t) outside the unit circle needs more than 2^t nodes,
    # t the significand width; even with no tolerance the rule stops there
    monkeypatch.setattr(conditioning, "_QUAD_REL_TOL", 0.0)
    for dtype, bits in ((np.complex128, 53), (np.complex64, 24)):
        a, b = scalar(1.0).astype(dtype), scalar(1.0 + 2.0 ** (3 - bits)).astype(dtype)
        with pytest.raises(ConvergenceError, match=rf"within 2\^{bits} nodes"):
            conditioning.omega_malyshev(a, b)


def test_omega_node_near_the_flag_is_searched_not_swept(monkeypatch):
    # the node phi = 0 of (1, 1 + 2^-52) sits just above the rank flag, so no
    # level's screen clears it: each level searches its new nodes by cosets,
    # where a sweep of them would factor 2^(k-1) nodes at level k
    matrices = []
    original = kernels._singular_values

    def counting(x):
        matrices.append(1 if x.ndim == 2 else x.shape[0])
        return original(x)

    monkeypatch.setattr(kernels, "_singular_values", counting)
    with pytest.raises(ConvergenceError, match=r"within 2\^53 nodes"):
        conditioning.omega_malyshev(scalar(1.0), scalar(1.0 + 2.0 ** -52))
    assert sum(matrices) < 2 ** 12


def test_omega_settles_near_the_unit_circle():
    # an eigenvalue 1e-4 outside the circle: the rule settles at 2^19 nodes, and
    # omega(a, b) = pi (a^2 + b^2) / |b^2 - a^2| for scalars
    a, b = 1.0, 1.0001
    report = conditioning.condition_chain_check(scalar(a), scalar(b), 2)
    exact = math.pi * (a * a + b * b) / abs(b * b - a * a)
    assert report.omega_ab == pytest.approx(exact, rel=1e-10)
    assert report.chain_ok


def test_omega_memory_is_bounded(monkeypatch):
    # the nodes of order 32 are factored and solved in batches of _BATCH_ENTRIES entries
    rng = rng_for(50)
    a, b = gen_ginibre(32, rng), gen_ginibre(32, rng)
    tracemalloc.start()
    try:
        conditioning.omega_malyshev(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20
    # the running sum is grouped by batch, so other batches agree to roundoff
    a, b = gen_ginibre(4, rng), gen_ginibre(4, rng)
    whole = conditioning.omega_malyshev(a, b)
    monkeypatch.setattr(conditioning, "_BATCH_ENTRIES", 37 * a.size)
    assert conditioning.omega_malyshev(a, b) == pytest.approx(whole, rel=1e-13)


def test_omega_tail_bound():
    rng = rng_for(48)
    v = gen_haar(3, rng)
    d = (0.4 + 0.2 * rng.random(3)) * np.exp(2j * np.pi * rng.random(3))
    a = np.eye(3, dtype=complex)
    b = (v * (1.0 / d)[None, :]) @ v.conj().T  # eigenvalues of (A, B) are d
    omega = conditioning.omega_malyshev(a, b)
    dist = conditioning.distance_ill_posed(a, b)
    h = a @ a.conj().T + b @ b.conj().T
    tail = math.sqrt(kernels.smallest_singular(h)) / (14.0 * omega)
    assert dist > tail


# --- entries near overflow or underflow ---------------------------------------------

@pytest.mark.parametrize("diagonal", [(1e308, 1e308), (1e308, 1.0)])
def test_shifted_pencil_near_overflow_is_scaled(diagonal):
    # -A + e^{i theta} B exceeds the float range unscaled; the pencil is
    # scaled by a power of two, so sigma comes back as 2 sin(pi/8) d_min
    a = np.diag(diagonal).astype(complex)
    sigma = 2.0 * math.sin(math.pi / 8.0) * min(diagonal)
    # scale invariant; past 1 / (n u) for (1e308, 1), where kappa_irs returns inf
    kappa = math.sqrt(2.0) * max(diagonal) / sigma
    assert conditioning.sigma_min_mp(a, a, 2) == pytest.approx(sigma, rel=1e-12)
    assert conditioning.kappa_irs(a, a, 2) == pytest.approx(kappa, rel=1e-12)
    assert conditioning.distance_ill_posed(a, a) == 0.0  # singular at theta = 0
    with pytest.raises(NearSingularNodeError):
        conditioning.omega_malyshev(a, a)
    report = conditioning.condition_chain_check(a, a, 2)
    assert report.sigma_min_mp == pytest.approx(sigma, rel=1e-12)
    assert report.stack_sigma_n == pytest.approx(math.sqrt(2.0) * min(diagonal), rel=1e-12)
    assert math.isinf(report.kappa_irs) == math.isinf(kappa)
    assert math.isinf(report.omega_ab) and report.chain_ok


@pytest.mark.parametrize("t", [1e200, 1e-200])
def test_hermitian_sum_out_of_range_is_scaled(t):
    # A A^H + B B^H = 10 t^2 I overflows or underflows to zero unscaled; omega is
    # scale invariant, so it is omega(I, 3 I) = (1/2) int 10 / |3 - e^{i phi}|^2 = 5 pi / 4
    a = t * np.eye(2, dtype=complex)
    b = 3.0 * a
    sigma = abs(3.0 * np.exp(0.25j * np.pi) - 1.0)  # sigma_min(M_2(I, 3 I))
    assert conditioning.distance_ill_posed(a, b) == pytest.approx(2.0 * t)
    assert conditioning.omega_malyshev(a, b) == pytest.approx(1.25 * math.pi, rel=1e-12)
    report = conditioning.condition_chain_check(a, b, 2)
    assert report.omega_ab == pytest.approx(1.25 * math.pi, rel=1e-12)
    assert report.d_ab == pytest.approx(2.0 * t)
    assert report.sigma_min_mp == pytest.approx(sigma * t)
    assert report.kappa_irs == pytest.approx(math.sqrt(10.0) / sigma)
    assert report.chain_ok


def test_overflowing_result_raises_domain_error():
    # sigma_min(M_1) of (1.5e308 I, -1.5e308 I) is 1.5 sqrt(2) e308, past the
    # float range; kappa_irs and d stay representable
    a = 1.5e308 * np.eye(2, dtype=complex)
    with pytest.raises(DomainError, match="sigma_min_mp: the result .* overflows"):
        conditioning.sigma_min_mp(a, -a, 1)
    with pytest.raises(DomainError, match="condition_chain_check: the result .* overflows"):
        conditioning.condition_chain_check(a, -a, 1)
    assert conditioning.kappa_irs(a, -a, 1) == pytest.approx(1.0)
    assert math.isfinite(conditioning.distance_ill_posed(a, -a))


# --- condition_chain_check ------------------------------------------------------------

def test_chain_identity_pencil():
    report = conditioning.condition_chain_check(np.eye(2), np.zeros((2, 2)), 2)
    assert report.sigma_min_mp == pytest.approx(1.0)
    assert report.kappa_irs == pytest.approx(1.0)
    assert report.d_ab == pytest.approx(1.0)
    assert report.omega_ab == pytest.approx(np.pi, rel=1e-10)
    assert report.chain_ok and not math.isinf(report.kappa_irs)


def test_chain_scalar_circle_eigenvalue():
    report = conditioning.condition_chain_check(scalar(1.0), scalar(1.0), 1)
    assert report.stack_sigma_n == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert report.sigma_min_mp == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert report.d_ab <= 1e-8
    assert math.isinf(report.omega_ab)
    assert report.chain_ok


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@pytest.mark.parametrize("n", [1, 2])
def test_zero_pencil_kappa_is_infinite(n, dtype):
    zero = np.zeros((n, n), dtype=dtype)
    for p in (1, 3):
        assert conditioning.kappa_irs(zero, zero, p) == float("inf")
        report = conditioning.condition_chain_check(zero, zero, p)
        assert math.isinf(report.kappa_irs)


def test_chain_random_pencil():
    rng = rng_for(49)
    v = gen_haar(4, rng)
    d = (1.3 + 0.4 * rng.random(4)) * np.exp(2j * np.pi * rng.random(4))
    a = gen_ginibre(4, rng)
    b = a @ (v * (1.0 / d)[None, :]) @ v.conj().T
    report = conditioning.condition_chain_check(a, b, 3)
    assert report.chain_ok
    assert report.stack_sigma_n >= report.sigma_min_mp - report.tol
    assert report.sigma_min_mp >= report.d_ab - 2 * report.tol


def test_chain_sweeps_the_roots_once(monkeypatch):
    rng = rng_for(51)
    a = gen_ginibre(3, rng)
    b = gen_ginibre(3, rng)
    shapes = _svd_shapes(monkeypatch)
    report = conditioning.condition_chain_check(a, b, 3)
    assert shapes.count((8, 3, 3)) == 1
    assert report.sigma_min_mp == conditioning.sigma_min_mp(a, b, 3)
    assert report.kappa_irs == conditioning.kappa_irs(a, b, 3)


# --- perturbation property -------------------------------------------------------------

def test_mp_perturbation_shift_bound():
    rng = rng_for(50)
    for _ in range(20):
        a = gen_ginibre(4, rng)
        b = gen_ginibre(4, rng)
        delta = 10.0 ** rng.uniform(-6, -1)
        e = gen_ginibre(4, rng)
        f = gen_ginibre(4, rng)
        e *= delta * rng.random() / kernels.spectral_norm(e)
        f *= delta * rng.random() / kernels.spectral_norm(f)
        base = conditioning.sigma_min_mp(a, b, 3)
        assert conditioning.sigma_min_mp(a + e, b + f, 3) >= base - 2 * delta - 1e-10
