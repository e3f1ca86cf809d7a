import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import pencilpow
from pencilpow import expm, kernels, qrperturb, squaring
from pencilpow.errors import (
    ConvergenceError,
    DomainError,
    NumericallySingularError,
    PencilPowError,
    PrecisionMismatchError,
    ShapeError,
)
from pencilpow.harness.generators import build_test_pencil
from pencilpow.precision import as_matrix, unit_roundoff

from conftest import ginibre, rel_err, rng_for

U64 = 2.0 ** -53


# --- independent oracles -------------------------------------------------

def kahan_matmul(a, b):
    """Compensated (Kahan) dot-product matrix multiply, entry by entry."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.complex128)
    for i in range(m):
        for j in range(n):
            total = 0.0 + 0.0j
            comp = 0.0 + 0.0j
            for l in range(k):
                term = complex(a[i, l]) * complex(b[l, j]) - comp
                tmp = total + term
                comp = (tmp - total) - term
                total = tmp
            out[i, j] = total
    return out


def charpoly_eigenvalues(h):
    """Eigenvalues of a Hermitian matrix via the Faddeev-LeVerrier
    characteristic-polynomial recursion and polynomial root finding."""
    n = h.shape[0]
    coeffs = [1.0 + 0.0j]
    m = np.zeros_like(h)
    for k in range(1, n + 1):
        m = h @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(h @ m) / k)
    roots = np.roots(np.array(coeffs))
    return np.sort(roots.real)[::-1]


# --- matmul ---------------------------------------------------------------

def test_matmul_identity():
    x = ginibre(3, rng_for(1))
    assert np.array_equal(kernels.matmul(np.eye(3), x), x)


def test_matmul_row_swap():
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    x = np.array([[1 + 2j, 3], [4, 5 - 1j]])
    assert np.array_equal(kernels.matmul(swap, x), x[::-1])


def test_matmul_against_kahan_oracle():
    rng = rng_for(2)
    a = ginibre(5, rng)
    b = ginibre(5, rng)
    assert rel_err(kernels.matmul(a, b), kahan_matmul(a, b)) <= 1e-14


def test_matmul_shape_and_precision_errors():
    with pytest.raises(ShapeError):
        kernels.matmul(np.eye(3), np.eye(4))
    with pytest.raises(PrecisionMismatchError):
        kernels.matmul(np.eye(3, dtype=np.complex64), np.eye(3, dtype=np.complex128))


def test_matmul_preserves_binary32():
    a = ginibre(4, rng_for(3)).astype(np.complex64)
    assert kernels.matmul(a, a).dtype == np.complex64


# --- full_qr ---------------------------------------------------------------

def test_full_qr_stacked_identity():
    a = np.vstack([np.eye(4), np.zeros((4, 4))]).astype(complex)
    qr = kernels.full_qr(a)
    assert np.allclose(qr.Q, np.eye(8), atol=1e-15)
    assert np.allclose(qr.R, a, atol=1e-15)


def test_full_qr_single_column():
    rng = rng_for(4)
    q = ginibre(5, rng)[:, :1]
    q /= np.linalg.norm(q)
    alpha = 3.25
    qr = kernels.full_qr(alpha * q)
    assert qr.R[0, 0] == pytest.approx(alpha, rel=1e-14)


def test_full_qr_residual_and_orthogonality():
    rng = rng_for(5)
    a = ginibre(8, rng)[:, :4]
    qr = kernels.full_qr(a)
    assert kernels.spectral_norm(qr.Q @ qr.R - a) / kernels.spectral_norm(a) <= 1e-14
    assert kernels.spectral_norm(qr.Q.conj().T @ qr.Q - np.eye(8)) <= 1e-13


def test_full_qr_phase_normalization_exact():
    rng = rng_for(6)
    a = ginibre(10, rng)[:, :6]
    r = kernels.full_qr(a).R
    diag = np.diagonal(r)
    assert np.all(np.imag(diag) == 0.0)
    assert np.all(np.real(diag) >= 0.0)
    assert np.all(r[np.tril_indices(10, -1, 6)] == 0.0)


def test_full_qr_rejects_wide():
    with pytest.raises(ShapeError):
        kernels.full_qr(np.ones((2, 5), dtype=complex))


@pytest.mark.parametrize("m,n", [(4, 4), (9, 3), (16, 16), (12, 7)])
def test_full_qr_reconstruction_property(m, n):
    a = ginibre(m, rng_for(100 + m * n), m=n)
    qr = kernels.full_qr(a)
    bound = 50 * n * U64 * kernels.spectral_norm(a)
    assert kernels.spectral_norm(qr.Q @ qr.R - a) <= bound
    assert kernels.spectral_norm(qr.Q.conj().T @ qr.Q - np.eye(m)) <= 50 * n * U64


def test_full_qr_binary32():
    a = ginibre(6, rng_for(7)).astype(np.complex64)
    qr = kernels.full_qr(a)
    assert qr.Q.dtype == np.complex64
    u32 = 2.0 ** -24
    assert kernels.spectral_norm(qr.Q @ qr.R - a) <= 50 * 6 * u32 * kernels.spectral_norm(a)


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@pytest.mark.parametrize("m,n", [(2, 1), (9, 3), (16, 8), (80, 33), (100, 70), (130, 129)])
def test_full_qr_tall_forms_q_from_reflectors(m, n, dtype):
    # spans one to three reflector blocks; the LAPACK complete Q is the reference
    a = ginibre(m, rng_for(300 + m + n), m=n).astype(dtype)
    u = unit_roundoff(a)
    qr = kernels.full_qr(a)
    reference = np.linalg.qr(a, mode="complete")[0]
    c = qr.complement
    assert c.shape == (m, m - n) and c.dtype == dtype
    assert np.abs(c - reference[:, n:]).max() <= 10 * m * u
    assert np.linalg.norm(c.conj().T @ c - np.eye(m - n), 2) <= 50 * m * u
    assert np.array_equal(qr.Q[:, n:], c)
    assert qr.Q.dtype == dtype
    assert np.linalg.norm(qr.Q @ qr.R - a, 2) <= 50 * n * u * np.linalg.norm(a, 2)
    assert np.linalg.norm(qr.Q.conj().T @ qr.Q - np.eye(m), 2) <= 50 * m * u


def _degenerate_tall_inputs():
    g = ginibre(70, rng_for(8), m=40)
    yield "zero", np.zeros((70, 40), dtype=complex), True
    yield "identity over zero", np.eye(70, 40, dtype=complex), True
    yield "rank one", np.outer(g[:, 0], g[0].conj()), False
    yield "one column", g[:, :1], False
    # the first reflector leaves column 1 = 2 e_1 triangular, so tau[1] alone
    # is zero: a zero row of the closed-form T beside nonzero couplings
    mixed = g.copy()
    mixed[1, 0] = 0
    mixed[:, 1] = 2 * np.eye(70)[:, 1]
    yield "mixed tau", mixed, False


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_full_qr_tall_degenerate_inputs(dtype):
    # LAPACK returns tau = 0 (H_i = I) for columns already in triangular form
    for label, a, zero_tau in _degenerate_tall_inputs():
        a = a.astype(dtype)
        m, n = a.shape
        u = unit_roundoff(a)
        assert (np.linalg.qr(a, mode="raw")[1] == 0).all() == zero_tau, label
        qr = kernels.full_qr(a)
        reference = np.linalg.qr(a, mode="complete")[0]
        assert np.abs(qr.complement - reference[:, n:]).max() <= 10 * m * u, label
        assert np.linalg.norm(qr.Q.conj().T @ qr.Q - np.eye(m), 2) <= 50 * m * u, label
        bound = 50 * n * u * max(np.linalg.norm(a, 2), 1e-300)
        assert np.linalg.norm(qr.Q @ qr.R - a, 2) <= bound, label


@pytest.mark.parametrize("m, n", [(16, 8), (70, 40)])
def test_full_qr_non_finite_reflectors_give_non_finite_q(m, n):
    # near overflow LAPACK's tau comes out non-finite; forming Q then gives
    # non-finite columns for its callers to check, never a numpy exception
    # (LinAlgError at (16, 8)) or warning
    a = ginibre(m, rng_for(0), m=n)
    a *= 1e308 / np.abs(a).max()
    assert not np.isfinite(np.linalg.qr(a, mode="raw")[1]).all()
    qr = kernels.full_qr(a)
    assert not np.isfinite(qr.complement).all()
    assert not np.isfinite(qr.Q).all()


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_full_qr_square_is_lapack_complete(dtype):
    # a square input takes the reflector path too: R is LAPACK's bit for bit,
    # Q is LAPACK's complete Q to roundoff, and the complement is empty
    for n in (1, 5, 40):
        a = ginibre(n, rng_for(400 + n)).astype(dtype)
        u = unit_roundoff(a)
        q, r = kernels._positive_qr(a)
        qr = kernels.full_qr(a)
        assert np.array_equal(qr.R, r)
        assert qr.Q.dtype == dtype and np.abs(qr.Q - q).max() <= 10 * n * u
        assert np.linalg.norm(qr.Q.conj().T @ qr.Q - np.eye(n), 2) <= 50 * n * u
        assert qr.complement.shape == (n, 0) and qr.complement.dtype == dtype


def test_irs_step_requests_only_raw_qr(monkeypatch):
    modes = []
    qr = np.linalg.qr

    def spy(a, mode="reduced"):
        modes.append(mode)
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", spy)
    a = ginibre(40, rng_for(9)) + 8 * np.eye(40)
    squaring.irs(a, ginibre(40, rng_for(10)), 3)
    assert modes == ["raw"] * 3


# --- svd --------------------------------------------------------------------

def test_svd_diagonal():
    _, s, _ = kernels.svd(np.diag([3.0, 2.0, 1.0]).astype(complex))
    assert np.allclose(s, [3, 2, 1])


def test_svd_zero_matrix():
    _, s, _ = kernels.svd(np.zeros((4, 4), dtype=complex))
    assert np.all(s == 0)


def test_svd_reconstruction_and_charpoly_oracle():
    a = ginibre(6, rng_for(8))
    u, s, vh = kernels.svd(a)
    rebuilt = u @ np.diag(s) @ vh
    assert rel_err(rebuilt, a) <= 1e-14
    eigs = charpoly_eigenvalues(a.conj().T @ a)
    assert np.allclose(np.sqrt(np.maximum(eigs, 0)), s, rtol=1e-12)


def test_svd_sorted_nonincreasing():
    _, s, _ = kernels.svd(ginibre(7, rng_for(9)))
    assert np.all(np.diff(s) <= 0)
    assert np.all(s >= 0)


# --- norms -------------------------------------------------------------------

def test_spectral_norm_identity():
    assert kernels.spectral_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-15)


def test_spectral_norm_zero_and_empty_inputs():
    for dtype in (np.complex64, np.complex128):
        for shape in [(4, 3), (3, 4), (0, 3), (3, 0), (0, 0)]:
            norm = kernels.spectral_norm(np.zeros(shape, dtype=dtype))
            assert norm == 0.0 and isinstance(norm, float)


def test_spectral_norm_subnormal_input_is_exact():
    # 2^e overflows for e = -1073, so the scaling must not form it
    assert kernels.spectral_norm(np.array([[5e-324]])) == 5e-324
    assert kernels.spectral_norm(np.array([[2.0 ** -140]], dtype=np.complex64)) == 2.0 ** -140


def test_spectral_norm_above_the_float_range_raises_domain_error():
    # each entry is finite, but ||a||_2 = 2e308 is not
    with pytest.raises(DomainError, match="spectral_norm: the result"):
        kernels.spectral_norm(np.full((2, 2), 1e308))


def test_spectral_norm_rejects_non_finite():
    for dtype in (np.complex64, np.complex128):
        for bad in (np.nan, np.inf):
            a = np.eye(3, dtype=dtype)
            a[1, 2] = bad
            with pytest.raises(DomainError):
                kernels.spectral_norm(a)


def test_spectral_norm_tallies_nothing():
    a = ginibre(6, rng_for(12))
    with kernels.count_kernels() as counts:
        for x in (a, a[:, :2], a[:2, :], a.astype(np.complex64)):
            kernels.spectral_norm(x)
    assert counts == kernels.KernelCounts()


def test_spectral_norm_keeps_the_input_precision(monkeypatch):
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def spy(g):
        seen.append(g.dtype)
        return eigvalsh(g)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    a = ginibre(5, rng_for(13), m=3)
    kernels.spectral_norm(a.astype(np.complex64))
    kernels.spectral_norm(a)
    assert seen == [np.dtype(np.complex64), np.dtype(np.complex128)]


def test_unitarity_defect_screen_gives_the_exact_verdict():
    def exact(q):
        return kernels.spectral_norm(q.conj().T @ q - np.eye(q.shape[0], dtype=q.dtype))

    haar = kernels.full_qr(ginibre(16, rng_for(14))).Q
    noise = ginibre(16, rng_for(15))
    cases = [kernels.full_qr(ginibre(n, rng_for(n))).Q.astype(dtype)
             for n in (1, 16, 256) for dtype in (np.complex64, np.complex128)]
    cases += [2 * np.eye(4, dtype=complex), ginibre(8, rng_for(16))]
    cases += [haar + eps * noise for eps in (1e-12, 1e-10, 1e-8)]
    for q in cases:
        two_norm = exact(q)
        for tol in (1e-10, 100.0 * q.shape[0] * unit_roundoff(q)):
            defect = kernels._unitarity_defect(q, tol)
            assert (defect <= tol) == (two_norm <= tol)
            if defect > tol:  # the fallback returns the exact 2-norm itself
                assert defect == two_norm


def test_smallest_singular_diagonal():
    assert kernels.smallest_singular(np.diag([1.0, 1e-8]).astype(complex)) == pytest.approx(
        1e-8, rel=1e-12
    )


def test_smallest_singular_rejects_empty():
    for shape in [(0, 3), (3, 0), (0, 0)]:
        with pytest.raises(ShapeError):
            kernels.smallest_singular(np.zeros(shape, dtype=complex))


def test_stacked_identity_norm():
    n = 4
    stack = np.vstack([np.eye(n), np.eye(n)]).astype(complex)
    assert kernels.spectral_norm(stack) == pytest.approx(np.sqrt(2.0), rel=1e-14)
    assert kernels.smallest_singular(stack) == pytest.approx(np.sqrt(2.0), rel=1e-14)


# --- invert -------------------------------------------------------------------

def test_invert_identity():
    assert np.allclose(kernels.invert(np.eye(3)), np.eye(3), atol=1e-15)


def test_invert_diagonal():
    x = kernels.invert(np.diag([2.0, 4.0]).astype(complex))
    assert np.allclose(x, np.diag([0.5, 0.25]), atol=1e-15)


def test_invert_residual():
    a = ginibre(6, rng_for(10))
    a += 3 * np.eye(6)  # keep it comfortably nonsingular
    x = kernels.invert(a)
    assert kernels.spectral_norm(x @ a - np.eye(6)) <= 1e-13


def test_invert_singular_error_carries_sigma_min():
    a = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(NumericallySingularError) as exc:
        kernels.invert(a)
    assert exc.value.sigma_min == 0.0


def _reference_invert(a):
    """Exact SVD guard on every input, then the QR solve: (X or None, sigma_min).

    None marks a rejection: the guard fires, or the QR factors or X are not
    finite. Otherwise X is ``solve(R, Q^H)``, bit for bit.
    """
    n = a.shape[0]
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] < n * unit_roundoff(a) * sv[0] or sv[-1] == 0.0:
        return None, sv[-1]
    q, r = kernels._positive_qr(a)
    with np.errstate(all="ignore"):
        try:
            x = np.linalg.solve(r, q.conj().T)
        except np.linalg.LinAlgError:
            return None, sv[-1]
    if not all(np.isfinite(m).all() for m in (q, r, x)):
        return None, sv[-1]
    return x, sv[-1]


def _guard_probe_matrices(n, dtype, rng):
    """Matrices around the guard's threshold sigma_min / sigma_max = n * u."""
    u = unit_roundoff(np.dtype(dtype))
    left, _ = np.linalg.qr(ginibre(n, rng))
    right, _ = np.linalg.qr(ginibre(n, rng))
    g = ginibre(n, rng)
    for ratio in (1e-3, 0.5, 0.99, 1.01, 2.0, 1e3):
        s = np.geomspace(1.0, ratio * n * u, n)
        yield f"ratio {ratio}", (left * s) @ right.conj().T
    yield "zero", np.zeros((n, n))
    yield "rank one", np.outer(g[:, 0], g[0].conj())
    tiny = np.finfo(np.dtype(dtype)).tiny
    yield "subnormal", g * (tiny * 1e-3)
    yield "near subnormal", g * (tiny * 1e8)
    # kappa_2 ~ 0.01 / (n u) passes the guard, but for n > 1 the inverse of
    # this triangle, whose QR factors are itself, overflows
    t = np.eye(n)
    t[0, -1] += 0.1 / np.sqrt(n * u)
    yield "overflowing inverse", 2 * tiny * t


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_invert_raises_exactly_where_svd_guard_rejects(n, dtype):
    # the factor screen may skip the guard SVD only where the guard passes
    rng = rng_for(100 + n)
    for _ in range(3):
        for label, a in _guard_probe_matrices(n, dtype, rng):
            a = a.astype(dtype)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                want, sigma_min = _reference_invert(a)
                if want is None:
                    with pytest.raises(NumericallySingularError) as exc:
                        kernels.invert(a)
                    assert exc.value.sigma_min == sigma_min, label
                else:
                    got = kernels.invert(a)
                    assert got.dtype == dtype and np.array_equal(got, want), label


def test_invert_skips_guard_svd_when_well_conditioned(monkeypatch):
    def no_svd(a):
        raise AssertionError("guard SVD ran")

    monkeypatch.setattr(kernels, "_singular_values", no_svd)
    for dtype in (np.complex64, np.complex128):
        a = (ginibre(32, rng_for(16)) + 8 * np.eye(32)).astype(dtype)
        x = kernels.invert(a)
        assert np.linalg.norm(x @ a - np.eye(32), 2) <= 1e3 * unit_roundoff(a)


def test_complex64_screen_passes_from_n_256(monkeypatch):
    # ||R||_F ||R^-1||_F >= n, so a spare factor n in the screen's 1 / (s n u)
    # rejected every complex64 R from n = 256; the inverse formed in complex128
    # leaves a spare factor 2, and a Ginibre step and inversion take no SVD
    def no_svd(*args):
        raise AssertionError("rank check fell back to the SVD")

    rng = rng_for(18)
    a, b = (ginibre(256, rng).astype(np.complex64) for _ in range(2))
    monkeypatch.setattr(kernels, "_singular_values", no_svd)
    a_next, b_next, trace = squaring.irs_step(a, b)
    assert a_next.dtype == np.complex64 and not trace.rank_warning
    x = kernels.invert(a)
    assert x.dtype == np.complex64 and np.linalg.norm(x @ a - np.eye(256)) < 1e-2


def test_rank_verdict_screens_before_the_svd():
    rng = rng_for(17)
    r = np.triu(ginibre(8, rng)) + 4 * np.eye(8)
    r_inv = np.linalg.inv(r)
    bounds = (float(np.linalg.norm(r)), float(1.0 / np.linalg.norm(r_inv)), False)
    # a passing screen never reads the fallback
    *verdict, got_inv = kernels._rank_verdict(r, lambda _: r_inv, fallback=None, what="t")
    assert tuple(verdict) == bounds and got_inv is r_inv
    sv = np.linalg.svd(r, compute_uv=False)
    assert kernels._rank_verdict(r, None, fallback=r, what="t") == (sv[0], sv[-1], False, None)
    *verdict, _ = kernels._rank_verdict(r, lambda _: np.full_like(r, np.inf), fallback=r,
                                         what="t")
    assert tuple(verdict) == (sv[0], sv[-1], False)

    # an inverse that raises LinAlgError leaves the SVD to decide
    def singular(_):
        raise np.linalg.LinAlgError("Singular matrix")

    assert kernels._rank_verdict(r, singular, fallback=r, what="t") == (sv[0], sv[-1], False, None)
    rank_one = np.outer(ginibre(8, rng)[:, 0], ginibre(8, rng)[0])
    assert kernels._rank_verdict(rank_one, None, fallback=rank_one, what="t")[2]
    # a tall m x n matrix is judged against n = columns: sigma_n = 8 u lies
    # above the threshold 4 u of its 4 columns and below 12 u of its 12 rows
    for dtype in (np.complex64, np.complex128):
        u = unit_roundoff(np.dtype(dtype))
        for sigma_n, deficient in ((8 * u, False), (2 * u, True)):
            tall = np.zeros((12, 4), dtype=dtype)
            tall[:4, :4] = np.diag([1.0, 1.0, 1.0, sigma_n])
            got = kernels._rank_verdict(tall, None, fallback=tall, what="t")
            assert got[1] == pytest.approx(sigma_n) and got[2] is deficient
        assert kernels._rank_deficient(8 * u, 1.0, np.zeros((12, 12), dtype=dtype))


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_rank_deficient_on_an_array_is_the_scalar_verdict_per_entry(dtype):
    like = np.zeros((5, 3), dtype=dtype)
    real = like.real.dtype.type
    sigma_1 = 2.5
    t = real(3 * unit_roundoff(like) * sigma_1)  # the threshold n u sigma_1
    sigma_n = np.array([0, np.nextafter(t, 0), t, np.nextafter(t, 1), 1, sigma_1], dtype=real)
    got = kernels._rank_deficient(sigma_n, sigma_1, like)
    assert got.tolist() == [kernels._rank_deficient(s, sigma_1, like) for s in sigma_n]
    assert got.tolist() == [True, True, False, False, False, False]
    # the zero clause holds entrywise: the zero matrix has sigma_1 = sigma_n = 0
    assert kernels._rank_deficient(np.zeros(2, dtype=real), 0.0, like).tolist() == [True, True]


def test_invert_rejects_rectangular():
    for shape in [(2, 3), (0, 0)]:
        with pytest.raises(ShapeError):
            kernels.invert(np.ones(shape, dtype=complex))


def run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports this pencilpow; assert it succeeds."""
    src = os.path.dirname(os.path.dirname(pencilpow.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_library_runtime_loads_no_scipy():
    # scipy bundles a second OpenBLAS; once woken, its spinning idle workers
    # slow numpy's SVD and QR, so the library calls LAPACK only through numpy
    run_fresh(
        "import sys\n"
        "import numpy as np\n"
        "import pencilpow\n"
        "run = pencilpow.squaring.irs(np.eye(4), 2 * np.eye(4), 3)\n"
        "pencilpow.squaring.implicit_to_explicit(run)\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )


def test_library_import_loads_no_network_stack():
    # xml.sax.saxutils imports urllib.request, and with it http.client, ssl
    # and email: about 46 ms of import for escaping one SVG title
    run_fresh(
        "import sys\n"
        "import pencilpow\n"
        "heavy = ('xml.sax', 'urllib.request', 'http.client', 'ssl', 'email')\n"
        "loaded = [m for m in heavy if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )


# --- singular value inequalities ---------------------------------------------

def test_weyl_stability_of_singular_values():
    rng = rng_for(11)
    for _ in range(20):
        m1 = ginibre(8, rng)
        m2 = ginibre(8, rng)
        s1 = np.linalg.svd(m1, compute_uv=False)
        s2 = np.linalg.svd(m2, compute_uv=False)
        slack = 10 * 8 * U64 * (s1[0] + s2[0])
        assert np.all(np.abs(s1 - s2) <= kernels.spectral_norm(m1 - m2) + slack)


def test_block_triangular_min_singular_bounds_square_blocks():
    # square A and square C: both corner bounds apply to the same M
    rng = rng_for(12)
    for _ in range(20):
        l, k = 3, 4
        a = ginibre(l, rng)
        b = ginibre(l, rng, m=k)
        c = ginibre(k, rng)
        m = np.block([[a, b], [np.zeros((k, l), dtype=complex), c]])
        sm = np.linalg.svd(m, compute_uv=False)[-1]
        tol = 10 * m.shape[0] * U64 * kernels.spectral_norm(m)
        assert sm <= np.linalg.svd(a, compute_uv=False)[l - 1] + tol
        assert sm <= np.linalg.svd(c, compute_uv=False)[k - 1] + tol


def test_block_triangular_min_singular_bound_tall_corner():
    # tall A (l <= n): only the top-left bound applies; C comes out wide
    rng = rng_for(15)
    for _ in range(20):
        n, l = 4, 3
        a = ginibre(n, rng, m=l)
        b = ginibre(n, rng, m=n)
        c = ginibre(n - l + 2, rng, m=n)[: n - 1, :]  # (m - n) x (m - l) wide
        m = np.block([[a, b], [np.zeros((n - 1, l), dtype=complex), c]])
        assert m.shape[0] == m.shape[1]
        sm = np.linalg.svd(m, compute_uv=False)[-1]
        tol = 10 * m.shape[0] * U64 * kernels.spectral_norm(m)
        assert sm <= np.linalg.svd(a, compute_uv=False)[l - 1] + tol


# --- counters -------------------------------------------------------------------

def test_kernel_counters_and_suspension():
    a = ginibre(4, rng_for(13)) + 2 * np.eye(4)
    with kernels.count_kernels() as counts:
        kernels.matmul(a, a)
        kernels.full_qr(a)
        kernels.invert(a)  # its unbilled QR and solve are one inversion
    assert counts == kernels.KernelCounts(matmul=1, qr=1, inv=1)


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_invert_bills_one_inversion_on_every_exit_path(dtype):
    # the factorization is unbilled however invert leaves: a returned inverse, an
    # exactly singular R, a guard rejection after the SVD fallback, a non-finite X
    probes = dict(_guard_probe_matrices(8, dtype, rng_for(18)))
    cases = [
        ("well conditioned", ginibre(8, rng_for(19)) + 8 * np.eye(8), None),
        ("zero", probes["zero"], "numerically singular"),
        ("rank one", probes["rank one"], "numerically singular"),
        ("overflowing inverse", probes["overflowing inverse"], "not finite"),
    ]
    for label, a, refusal in cases:
        a = a.astype(dtype)
        with kernels.count_kernels() as counts:
            if refusal is None:
                kernels.invert(a)
            else:
                with pytest.raises(NumericallySingularError, match=refusal):
                    kernels.invert(a)
        assert counts == kernels.KernelCounts(inv=1), label


def test_kernel_counters_nested_scopes():
    a = ginibre(3, rng_for(14))
    with kernels.count_kernels() as outer:
        kernels.matmul(a, a)
        with kernels.count_kernels() as inner:
            kernels.matmul(a, a)
    assert outer.matmul == 2
    assert inner.matmul == 1


def test_kernel_counters_inner_scope_opened_before_any_call():
    # the inner scope exits with the same tally as the outer one; only it may leave
    a = ginibre(3, rng_for(15))
    with kernels.count_kernels() as outer:
        with kernels.count_kernels() as inner:
            pass
        kernels.matmul(a, a)
    assert outer == kernels.KernelCounts(matmul=1)
    assert inner == kernels.KernelCounts()


@pytest.mark.parametrize("call", [
    lambda: kernels.matmul([["a"]], [[1]]),
    lambda: expm.expm([["1x"]]),
    lambda: squaring.irs([[1, 2], [3]], np.eye(2), 1),
    lambda: kernels.invert(np.array([[object()]])),
    lambda: build_test_pencil([["q"]], np.eye(1), [1]),
    lambda: build_test_pencil(np.eye(1), np.eye(1), ["q"]),
    lambda: qrperturb.sun_alpha("x"),
    lambda: qrperturb.sun_alpha(None),
], ids=["matmul-str", "expm-str", "irs-ragged", "invert-object", "pencil-str-a",
        "pencil-str-d", "sun_alpha-str", "sun_alpha-none"])
def test_non_numeric_input_is_a_structured_error(call):
    # ragged or non-numeric input is refused at the matrix boundary, never
    # as numpy's raw ValueError / TypeError / UFuncTypeError
    with pytest.raises(PencilPowError):
        call()


def test_as_matrix_refuses_a_3d_array():
    with pytest.raises(ShapeError, match="x must be 2-D, got shape"):
        as_matrix(np.zeros((2, 2, 2)), "x")


@pytest.mark.parametrize("routine, call", [
    ("svd", lambda a: kernels._singular_values(a)),
    ("svd", lambda a: kernels.svd(a)),
    ("eigvalsh", lambda a: kernels.spectral_norm(a)),
], ids=["singular_values", "svd", "spectral_norm"])
def test_lapack_non_convergence_is_a_convergence_error(monkeypatch, routine, call):
    # LAPACK's non-convergence reaches the caller as ConvergenceError, not LinAlgError
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{routine} did not converge")

    monkeypatch.setattr(np.linalg, routine, fail)
    with pytest.raises(ConvergenceError, match="did not converge"):
        call(np.eye(3, dtype=complex))


def test_svd_past_the_float32_range_is_a_domain_error():
    # numpy computes complex64 in complex128 and casts the result back; sigma_1
    # of this matrix is twice the float32 maximum, so that cast would overflow
    a = np.full((4, 4), np.finfo(np.float32).max / 2, dtype=np.complex64)
    # invert's rank check falls back to that SVD, and its refusal names invert;
    # the 8 x 4 stack of a and -a has column norm sqrt(2) max, the first entry of R
    stack = np.vstack([a, -a])
    for name, call in (("svd", lambda: kernels.svd(a)),
                       ("smallest_singular", lambda: kernels.smallest_singular(a)),
                       ("invert", lambda: kernels.invert(a)),
                       ("full_qr", lambda: kernels.full_qr(stack)),
                       ("irs_step", lambda: squaring.irs_step(a, a)),
                       ("irs_step", lambda: squaring.irs(a, a, 1))):
        with pytest.raises(DomainError, match=f"{name}: a result overflows complex64"):
            call()


@pytest.mark.parametrize("dtype, entry", [(np.complex128, 1e200),
                                          (np.complex64, np.finfo(np.float32).max / 2)])
def test_matmul_overflow_is_a_domain_error_naming_its_caller(dtype, entry):
    # each product is range-checked once, in matmul, under its caller's name
    a = np.full((4, 4), entry, dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^matmul: the product overflowed$"):
            kernels.matmul(a, a)
        with pytest.raises(DomainError, match="^caller: X Y overflowed$"):
            kernels.matmul(a, a, "caller", "X Y")


def test_unit_roundoff_of_every_input_kind():
    u32, u64 = 2.0 ** -24, 2.0 ** -53
    table = [
        ("binary32", u32), ("binary64", u64),
        (np.complex64, u32), (np.complex128, u64), (np.float32, u32), (np.float64, u64),
        (np.dtype(np.complex64), u32), (np.dtype(np.float64), u64),
        (np.zeros((2, 2), dtype=np.complex64), u32), (np.zeros(2), u64),
        (np.complex64(1.0), u32), (np.float32(1.0), u32),
        ("complex64", None), (np.float16, None), (np.zeros(2, dtype=int), None),
        (np.zeros(2, dtype=object), None), ([[1.0]], None), (None, None), (object, None),
    ]
    for kind, u in table:
        if u is None:
            with pytest.raises(DomainError):
                unit_roundoff(kind)
        else:
            assert unit_roundoff(kind) == u, kind
