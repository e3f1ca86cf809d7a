import itertools
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pencilpow import kernels, squaring
from pencilpow.errors import (
    DomainError,
    NumericallySingularError,
    RankDeficientStackWarning,
    ShapeError,
)
from pencilpow.harness.generators import build_test_pencil, gen_ginibre, gen_haar
from pencilpow.precision import unit_roundoff

from conftest import ginibre, rel_err, rng_for

U64 = 2.0 ** -53


def well_conditioned_pencil(n, seed, r_lo=0.5, r_hi=1.0, kappa_cap=100.0):
    """Construction-based pencil with kappa_2(A) under the cap."""
    rng = rng_for(seed)
    while True:
        a = gen_ginibre(n, rng)
        sv = np.linalg.svd(a, compute_uv=False)
        if sv[0] / sv[-1] <= kappa_cap:
            break
    v = gen_haar(n, rng)
    mod = r_lo + (r_hi - r_lo) * rng.random(n)
    d = mod * np.exp(2j * np.pi * rng.random(n))
    return build_test_pencil(a, v, d)


# --- irs_step ---------------------------------------------------------------

def test_irs_step_identity_pair():
    a1, b1, _ = squaring.irs_step(np.eye(2), np.eye(2))
    assert rel_err(np.linalg.solve(a1, b1), np.eye(2)) <= 1e-14


def test_irs_step_diagonal_squares():
    lam = np.array([0.7, 1.3])
    a1, b1, _ = squaring.irs_step(np.eye(2), np.diag(lam).astype(complex))
    assert rel_err(np.linalg.solve(a1, b1), np.diag(lam ** 2)) <= 1e-13


def test_irs_step_doubles_eigenpairs():
    # pencil built from a diagonalization, so (lam, v) eigenpairs are known:
    # A v = lam B v must become A_1 v = lam^2 B_1 v
    pencil, _ = well_conditioned_pencil(4, seed=21)
    eigvals, eigvecs = np.linalg.eig(np.linalg.solve(pencil.a, pencil.b))
    a1, b1, _ = squaring.irs_step(pencil.a, pencil.b)
    stack_norm = kernels.spectral_norm(np.vstack([a1, b1]))
    for i in range(4):
        v = eigvecs[:, i]
        mu2 = eigvals[i] ** 2
        assert np.linalg.norm(b1 @ v - mu2 * (a1 @ v)) <= 1e-10 * stack_norm


def test_irs_step_trace_fields():
    pencil, _ = well_conditioned_pencil(4, seed=22)
    _, _, tr = squaring.irs_step(pencil.a, pencil.b, step_index=3)
    assert tr.step_index == 3
    assert tr.sigma_n_lb <= tr.norm_stack_ub
    assert not tr.rank_warning


def test_irs_step_takes_svd_only_when_screen_inconclusive(monkeypatch):
    # the paper's step is one QR and two matmuls; a matmul-only inverse of
    # R_11 certifies a full-rank stack, and only a stack it cannot decide
    # takes one SVD, of the n x n R_11
    pencil, _ = well_conditioned_pencil(8, seed=23)
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    squaring.irs_step(pencil.a, pencil.b)
    assert calls == []
    rank_one = np.zeros((8, 8), dtype=complex)
    rank_one[0, 0] = 1.0
    with pytest.warns(RankDeficientStackWarning):
        squaring.irs_step(rank_one, rank_one.copy())
    assert calls == [(8, 8)]


def test_irs_step_rank_deficient_stack_warns_and_continues():
    # rank one, and the zero pencil, whose sigma_n = 0 = n * u * ||stack||
    for a in (np.diag([1.0, 0.0]).astype(complex), np.zeros((2, 2), dtype=complex)):
        with pytest.warns(RankDeficientStackWarning):
            _, _, tr = squaring.irs_step(a, a.copy())
        assert tr.rank_warning


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_irs_step_trace_matches_stack_svd(dtype):
    # the trace bounds sigma(R_11) = sigma(stack) by ||R_11||_F and
    # 1 / ||R_11^-1||_F, each within sqrt(n); the exact SVD's values where it ran
    n = 16
    u = unit_roundoff(np.dtype(dtype))
    pencil, _ = well_conditioned_pencil(n, seed=28, r_hi=1.2)
    unit_circle = (np.eye(2), np.diag([1j, -1]))
    # scaled into the subnormal range, R comes out non-finite and the trace
    # falls back to the stack's own SVD
    scale = 1e-2 * np.finfo(np.dtype(dtype)).tiny
    subnormal = (scale * unit_circle[0], scale * unit_circle[1])
    for (a, b), exact in [((pencil.a, pencil.b), False), (unit_circle, False), (subnormal, True)]:
        a, b = a.astype(dtype), b.astype(dtype)
        for j in range(4):
            sv = np.linalg.svd(np.vstack([b, -a]), compute_uv=False)
            a, b, tr = squaring.irs_step(a, b, step_index=j)
            root_n = np.sqrt(a.shape[0])
            tol = 10 * a.shape[0] * u * sv[0]
            assert sv[0] - tol <= tr.norm_stack_ub <= root_n * sv[0] + tol
            assert sv[-1] / root_n - tol <= tr.sigma_n_lb <= sv[-1] + tol
            if exact:
                assert abs(tr.norm_stack_ub - sv[0]) <= tol
                assert abs(tr.sigma_n_lb - sv[-1]) <= tol


def _reference_stack_flag(a, b):
    """The rank flag from an exact SVD on every stack: R_11's, or the stack's
    when R is non-finite, as `irs_step` decides where its screen cannot."""
    n = a.shape[0]
    stack = np.vstack([b, -a])
    r11 = kernels.full_qr(stack).R[:n]
    finite = np.isfinite(r11).all()
    sv = np.linalg.svd(r11 if finite else stack, compute_uv=False)
    return bool(sv[-1] < n * unit_roundoff(stack) * sv[0] or sv[-1] == 0.0)


def _stack_probe_pencils(n, dtype, rng):
    """(A, B) whose stacks (B; -A) straddle the threshold sigma_n / sigma_1 = n * u."""
    u = unit_roundoff(np.dtype(dtype))
    left, _ = np.linalg.qr(ginibre(2 * n, rng, m=n))
    right, _ = np.linalg.qr(ginibre(n, rng))
    g = ginibre(2 * n, rng, m=n)
    stacks = []
    for ratio in (1e-3, 0.5, 0.99, 1.01, 2.0, 1e3):
        s = np.geomspace(1.0, ratio * n * u, n)
        stacks.append((f"ratio {ratio}", (left * s) @ right.conj().T))
    stacks.append(("zero", np.zeros((2 * n, n))))
    stacks.append(("rank one", np.outer(g[:, 0], g[0].conj())))
    stacks.append(("subnormal", g * (np.finfo(np.dtype(dtype)).tiny * 1e-3)))
    for label, stack in stacks:
        stack = stack.astype(dtype)
        yield label, -stack[n:], stack[:n]


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_irs_step_flags_exactly_where_svd_reference_does(n, dtype):
    # the screen may skip the SVD only where the SVD would not flag the stack
    rng = rng_for(200 + n)
    for _ in range(3):
        for label, a, b in _stack_probe_pencils(n, dtype, rng):
            want = _reference_stack_flag(a, b)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                a_next, b_next, tr = squaring.irs_step(a, b)
            flagged = [w for w in caught if issubclass(w.category, RankDeficientStackWarning)]
            assert tr.rank_warning == want, label
            assert len(flagged) == int(want), label
            assert len(caught) == len(flagged), (label, [str(w.message) for w in caught])
            assert a_next.dtype == dtype and b_next.dtype == dtype


def test_subnormal_a_p_raises_structured_error():
    # benign unit-circle pencil: the complex64 stack norm decays by 1/sqrt(2)
    # per step, so by p = 300 ||A_p|| ~ 1.4e-45 and its QR factors hold NaN
    a = np.eye(2, dtype=np.complex64)
    b = np.diag([1j, -1]).astype(np.complex64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficientStackWarning)
        run = squaring.irs(a, b, 300)
    for convert in (squaring.implicit_to_explicit, squaring.spectral_projector):
        with pytest.raises(NumericallySingularError) as exc:
            convert(run)
        assert np.isfinite(exc.value.sigma_min)


# --- irs ----------------------------------------------------------------------

def test_irs_identity_five_steps():
    run = squaring.irs(np.eye(3), np.eye(3), 5)
    assert run.p == 5 and len(run.trace) == 5
    assert rel_err(squaring.implicit_to_explicit(run), np.eye(3)) <= 1e-13


def test_irs_diagonal_powers():
    run = squaring.irs(np.eye(2), np.diag([0.5, 2.0]).astype(complex), 3)
    expected = np.diag([0.5 ** 8, 2.0 ** 8])
    result = squaring.implicit_to_explicit(run)
    assert np.allclose(result, expected, rtol=1e-12, atol=0)


def test_irs_against_diagonalization_oracle():
    pencil, oracle = well_conditioned_pencil(8, seed=24, r_hi=1.0)
    run = squaring.irs(pencil.a, pencil.b, 4)
    assert rel_err(squaring.implicit_to_explicit(run), oracle(4)) <= 1e-10


def test_irs_rejects_p_zero():
    with pytest.raises(ShapeError):
        squaring.irs(np.eye(2), np.eye(2), 0)


def test_irs_incremental_prefix_is_exact():
    pencil, _ = well_conditioned_pencil(6, seed=25)
    run3 = squaring.irs(pencil.a, pencil.b, 3)
    run2 = squaring.irs(pencil.a, pencil.b, 2)
    a3, b3, _ = squaring.irs_step(run2.a_p, run2.b_p, step_index=2)
    assert np.array_equal(a3, run3.a_p)
    assert np.array_equal(b3, run3.b_p)
    assert run2.trace == run3.trace[:2]


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_irs_iter_runs_equal_irs_bit_for_bit(dtype):
    pencil, _ = well_conditioned_pencil(6, seed=27)
    a, b = pencil.a.astype(dtype), pencil.b.astype(dtype)
    runs = list(itertools.islice(squaring.irs_iter(a, b), 4))
    assert [run.p for run in runs] == [1, 2, 3, 4]
    for run in runs:
        direct = squaring.irs(a, b, run.p)
        assert run.a_p.dtype == dtype
        assert np.array_equal(run.a_p, direct.a_p)
        assert np.array_equal(run.b_p, direct.b_p)
        assert run.trace == direct.trace
        assert len(run.trace) == run.p


# --- explicit squaring -----------------------------------------------------------

def test_explicit_squaring_p_zero_returns_product():
    x = ginibre(3, rng_for(26))
    result = squaring.explicit_squaring(np.eye(3), x, 0)
    assert rel_err(result, x) <= 1e-14


def test_explicit_squaring_scalar_diag():
    result = squaring.explicit_squaring(np.eye(1), np.array([[2.0 + 0j]]), 3)
    assert result[0, 0] == pytest.approx(256.0, rel=1e-13)


def test_explicit_squaring_against_oracle():
    pencil, oracle = well_conditioned_pencil(8, seed=24, r_hi=1.0)
    result = squaring.explicit_squaring(pencil.a, pencil.b, 4)
    assert rel_err(result, oracle(4)) <= 1e-9


def test_explicit_squaring_singular_a():
    with pytest.raises(NumericallySingularError):
        squaring.explicit_squaring(np.diag([1.0, 0.0]).astype(complex), np.eye(2), 1)


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_explicit_squaring_overflow_raises_domain_error(dtype):
    root = np.sqrt(np.finfo(np.dtype(dtype)).max)
    eye = np.eye(2, dtype=dtype)
    # D_0 = 2 root I is finite and its first square overflows; with A = I / root,
    # D_0 itself does
    for a, b, p in [(eye, 2 * root * eye, 3), (eye / root, 2 * root * eye, 0)]:
        with pytest.raises(DomainError, match="overflowed"):
            squaring.explicit_squaring(a, b, p)


# --- implicit_to_explicit -----------------------------------------------------

def test_implicit_to_explicit_trivial():
    run = squaring.irs(np.eye(2), np.eye(2), 3)
    assert rel_err(squaring.implicit_to_explicit(run), np.eye(2)) <= 1e-13
    run = squaring.irs(np.eye(2), np.diag([0.5, 2.0]).astype(complex), 2)
    assert np.allclose(
        squaring.implicit_to_explicit(run), np.diag([0.5 ** 4, 2.0 ** 4]), rtol=1e-12
    )


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_implicit_to_explicit_overflow_raises_domain_error(dtype):
    # a_p^-1 = root I and b_p = 2 root I are finite; their product is not
    root = np.sqrt(np.finfo(np.dtype(dtype)).max)
    eye = np.eye(2, dtype=dtype)
    run = squaring.IRSRun(a_p=eye / root, b_p=2 * root * eye, trace=())
    with pytest.raises(DomainError, match="overflowed"):
        squaring.implicit_to_explicit(run)


def test_implicit_and_explicit_agree():
    pencil, _ = well_conditioned_pencil(8, seed=27)
    run = squaring.irs(pencil.a, pencil.b, 4)
    explicit = squaring.explicit_squaring(pencil.a, pencil.b, 4)
    assert rel_err(squaring.implicit_to_explicit(run), explicit) <= 1e-8


def test_concurrent_runs_match_serial_results_and_counts():
    # README: pure functions plus thread-local counters make concurrent calls
    # safe; a counter shared across threads would bill one run's kernels to all
    p, workers, rounds = 5, 4, 5
    pencils = [well_conditioned_pencil(12, seed=40 + i)[0] for i in range(workers)]

    def work(pencil):
        with kernels.count_kernels() as counts:
            run = squaring.irs(pencil.a, pencil.b, p)
            x = squaring.implicit_to_explicit(run)
        return x, run.trace, counts

    serial = [work(pencil) for pencil in pencils]
    start = threading.Barrier(workers)

    def repeat(pencil):
        start.wait(timeout=60)
        return [work(pencil) for _ in range(rounds)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        futures = [pool.submit(repeat, pencil) for pencil in pencils]
        results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown(wait=False, cancel_futures=True)
    expected = kernels.KernelCounts(matmul=2 * p + 1, qr=p, inv=1)
    for (x, trace, counts), runs in zip(serial, results):
        assert counts == expected
        for x_t, trace_t, counts_t in runs:
            assert counts_t == expected
            assert np.array_equal(x_t, x) and trace_t == trace


# --- spectral projector -----------------------------------------------------------

def projector_pencil(n, seed, moduli):
    """Pencil whose eigenvalues (A v = lam B v) have the given moduli.

    A = I and B = V diag(1/lam) V^H, so A^-1 B has eigenvalues 1/lam.
    """
    rng = rng_for(seed)
    v = gen_haar(n, rng)
    lam = np.asarray(moduli) * np.exp(2j * np.pi * rng.random(n))
    b = (v * (1.0 / lam)[None, :]) @ v.conj().T
    return np.eye(n, dtype=complex), b, lam, v


def test_projector_eigenvalues_outside_disk_to_identity():
    a, b, _, _ = projector_pencil(4, 28, [2.0] * 4)
    run = squaring.irs(a, b, 5)
    proj = squaring.spectral_projector(run)
    assert np.linalg.norm(proj - np.eye(4), 2) <= 1e-6


def test_projector_eigenvalues_inside_disk_to_zero():
    a, b, _, _ = projector_pencil(4, 29, [0.5] * 4)
    run = squaring.irs(a, b, 5)
    proj = squaring.spectral_projector(run)
    assert np.linalg.norm(proj, 2) <= 1e-6


def test_projector_mixed_spectrum_splits_eigenvectors():
    moduli = [0.5, 0.5, 2.0, 2.0]
    a, b, lam, v = projector_pencil(4, 30, moduli)
    run = squaring.irs(a, b, 6)
    proj = squaring.spectral_projector(run)
    for i in range(4):
        expected = 1.0 if abs(lam[i]) > 1 else 0.0
        assert np.linalg.norm(proj @ v[:, i] - expected * v[:, i]) <= 1e-6


# --- invariants ------------------------------------------------------------------

def test_squaring_identity_sweep():
    for seed, n, p in [(31, 4, 2), (32, 8, 3), (33, 12, 4), (34, 16, 4)]:
        pencil, oracle = well_conditioned_pencil(n, seed=seed)
        run = squaring.irs(pencil.a, pencil.b, p)
        assert rel_err(squaring.implicit_to_explicit(run), oracle(p)) <= 1e-9


def test_norm_growth_per_step():
    pencil, _ = well_conditioned_pencil(8, seed=35)
    run = squaring.irs(pencil.a, pencil.b, 5)
    factor = (1 + 10 * 8 * U64) ** 2
    norms = [t.norm_stack_ub for t in run.trace]
    for j in range(len(norms) - 1):
        assert norms[j + 1] <= factor * norms[j]


def test_stack_sigma_bounded_below_by_mp():
    from pencilpow.conditioning import sigma_min_mp

    pencil, _ = well_conditioned_pencil(8, seed=36)
    p = 4
    run = squaring.irs(pencil.a, pencil.b, p)
    floor = sigma_min_mp(pencil.a, pencil.b, p)
    stack_norm = kernels.spectral_norm(np.vstack([pencil.a, pencil.b]))
    slack = p * 10 * 8 * U64 * stack_norm
    for t in run.trace:
        assert t.sigma_n_lb >= floor - slack


def test_explicit_error_within_propagation_ceiling():
    # sanity ceiling: measured error never lands above 10x the evaluated
    # explicit-recursion bound (the bound itself is far from tight)
    n, p = 8, 3
    pencil, oracle = well_conditioned_pencil(n, seed=37)
    result = squaring.explicit_squaring(pencil.a, pencil.b, p)
    target = oracle(p)
    measured = np.linalg.norm(result - target, 2)
    tau = n * n * U64
    sv = np.linalg.svd(pencil.a, compute_uv=False)
    base = kernels.spectral_norm(target) ** (1 / 2 ** p)  # ~ ||A^-1 B||_2
    prod = 1.0
    for j in range(1, p + 1):
        prod *= 2.0 * (1 + tau) * base ** (2 ** (j - 1))
    bound = prod * tau * (1 + (1 + tau) * (sv[0] / sv[-1]) ** np.log(n)) * (
        kernels.spectral_norm(pencil.b) / sv[-1]
    )
    assert measured <= 10.0 * bound


# --- validation -------------------------------------------------------------------

def test_pencil_validation():
    with pytest.raises(ShapeError):
        squaring.Pencil(np.eye(2), np.eye(3))
    with pytest.raises(ShapeError):
        squaring.Pencil(np.ones((2, 3)), np.ones((2, 3)))
