import numpy as np
import pytest
import scipy.stats

from pencilpow import kernels
from pencilpow.errors import DomainError
from pencilpow.harness import generators as gen

from conftest import rel_err, rng_for


# --- gen_ginibre --------------------------------------------------------------

def test_ginibre_deterministic_per_seed():
    a = gen.gen_ginibre(16, 12345)
    b = gen.gen_ginibre(16, 12345)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, gen.gen_ginibre(16, 12346))


def test_negative_seed_is_a_domain_error():
    # not numpy's ValueError; a Generator passes through untouched
    for draw in (lambda: gen.rng_from_seed(-1), lambda: gen.gen_ginibre(3, -2),
                 lambda: gen.sample_spectrum("disk", 3, -3)):
        with pytest.raises(DomainError):
            draw()
    rng = np.random.default_rng(0)
    assert gen.rng_from_seed(rng) is rng


def test_ginibre_moments():
    a = gen.gen_ginibre(100, 7)
    assert abs(a.mean()) < 0.05
    assert np.mean(np.abs(a) ** 2) == pytest.approx(1.0, rel=0.05)


def test_ginibre_edge_of_spectrum():
    norms = [kernels.spectral_norm(gen.gen_ginibre(256, 1000 + t)) for t in range(3)]
    assert np.mean(norms) / np.sqrt(256) == pytest.approx(2.0, rel=0.1)


# --- gen_haar ------------------------------------------------------------------

def test_haar_unitary():
    q = gen.gen_haar(24, 8)
    assert kernels.spectral_norm(q.conj().T @ q - np.eye(24)) <= 1e-13


def test_haar_eigenvalue_angles_uniform():
    args = []
    for t in range(50):
        q = gen.gen_haar(8, 9000 + t)
        args.extend(np.angle(np.linalg.eigvals(q)))
    pooled = (np.asarray(args) + np.pi) / (2 * np.pi)
    result = scipy.stats.kstest(pooled, "uniform")
    assert result.pvalue > 0.01


def test_haar_determinant_modulus():
    q = gen.gen_haar(16, 10)
    assert abs(np.linalg.det(q)) == pytest.approx(1.0, abs=1e-10)


# --- make_ill_conditioned ---------------------------------------------------------

def test_make_ill_delta_one_is_identity_map():
    a = gen.gen_ginibre(8, 11)
    assert np.array_equal(gen.make_ill_conditioned(a, 1.0), a)


def test_make_ill_shrinks_smallest_singular_value():
    a = gen.gen_ginibre(64, 12)
    before = np.linalg.svd(a, compute_uv=False)
    out = gen.make_ill_conditioned(a, 1e-8)
    after = np.linalg.svd(out, compute_uv=False)
    ratio = after[-1] / before[-1]
    assert 0.5e-8 <= ratio <= 2e-8
    # every other singular value is untouched
    assert np.allclose(after[:-1], before[:-1], rtol=1e-12)


def test_make_ill_domain():
    a = gen.gen_ginibre(4, 13)
    for bad in (0.0, -1.0, 1.5):
        with pytest.raises(DomainError):
            gen.make_ill_conditioned(a, bad)


# --- sample_spectrum ----------------------------------------------------------------

def test_spectrum_circle():
    d = gen.sample_spectrum("circle", 50, 14)
    assert np.all(np.abs(np.abs(d) - 1.0) <= 1e-15)


def test_spectrum_disk():
    d = gen.sample_spectrum("disk", 50, 15)
    assert np.all(np.abs(d) <= 1.0)


def test_spectrum_annulus_defaults():
    d = gen.sample_spectrum("annulus", 50, 16)
    assert np.all((np.abs(d) >= 0.95) & (np.abs(d) <= 1.05))


def test_spectrum_validation():
    with pytest.raises(DomainError):
        gen.sample_spectrum("square", 4, 0)
    with pytest.raises(DomainError):
        gen.sample_spectrum("annulus", 4, 0, r_lo=1.1, r_hi=1.0)


# --- build_test_pencil ---------------------------------------------------------------

def test_pencil_identity_diagonal():
    rng = rng_for(17)
    a = gen.gen_ginibre(6, rng)
    v = gen.gen_haar(6, rng)
    pencil, oracle = gen.build_test_pencil(a, v, np.ones(6))
    assert rel_err(pencil.b, a) <= 1e-14
    for p in (0, 1, 5):
        assert np.allclose(oracle(p), np.eye(6), atol=1e-13)


def test_pencil_unitary_v_takes_no_eigenvalue_solve(monkeypatch):
    # the Frobenius screen certifies a unitary V; eigvalsh runs only on a V it rejects
    def forbidden(*args):
        raise AssertionError("eigvalsh called")

    a = gen.gen_ginibre(16, 3)
    v = gen.gen_haar(16, 4)
    d = gen.sample_spectrum("circle", 16, 5)
    d2 = d * d
    expected = (v * (d2 * d2)[None, :]) @ v.conj().T
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    _, oracle = gen.build_test_pencil(a, v, d)
    assert np.array_equal(oracle(2), expected)  # V^-1 is V^H
    with pytest.raises(AssertionError, match="eigvalsh called"):
        gen.build_test_pencil(a, gen.gen_ginibre(16, 6), d)


def test_pencil_identity_eigenvectors():
    d = np.array([0.5, 2.0, 1.0 + 1.0j])
    pencil, oracle = gen.build_test_pencil(np.eye(3), np.eye(3), d)
    assert np.allclose(oracle(2), np.diag(d ** 4), rtol=1e-15)


def test_pencil_oracle_against_repeated_matmul():
    rng = rng_for(18)
    a = gen.gen_ginibre(8, rng)
    v = gen.gen_haar(8, rng)
    d = gen.sample_spectrum("annulus", 8, rng, r_lo=0.6, r_hi=0.9)
    _, oracle = gen.build_test_pencil(a, v, d)
    c = (v * d[None, :]) @ v.conj().T
    power = c.copy()
    for _ in range(3):
        power = power @ power
    assert rel_err(oracle(3), power) <= 1e-12
