"""Spectral-norm QR perturbation: how far can a Q factor drift?

The certificate compares the measured drift of the (unique, positive
diagonal) reduced Q factor against the bound

    (2 ln(n+1) + 7) alpha(||A^+|| ||E||) kappa_2(A) ||E|| / ||A||,

whose log(n) factor comes from the Lebesgue constant of the Dirichlet
kernel via the triangular-norm inequality demonstrated below.
"""

import numpy as np

from pencilpow.harness.generators import gen_ginibre, gen_haar
from pencilpow.kernels import full_qr
from pencilpow.qrperturb import (
    align_complement,
    lebesgue_constant,
    qr_perturb_certificate,
    sun_alpha,
    triangular_norm_check,
)

rng = np.random.Generator(np.random.Philox(2024))

print("alpha(eps) amplification:", ", ".join(
    f"alpha({e}) = {sun_alpha(e):.4f}" for e in (0.1, 0.5, 0.9)
))

print("\nLebesgue constants vs the log bound:")
for k in (1, 10, 100, 1000):
    bound = np.log(k) + np.log(np.pi) + (2 / np.pi) * (1 + 2 / k)
    print(f"  L_{k:<5} = {lebesgue_constant(k):8.4f}   ln(k)+ln(pi)+... = {bound:8.4f}")

print("\ntriangular-norm inequality on a random lower triangle (n=16):")
tri = np.tril(gen_ginibre(16, rng), -1) + np.diag(rng.standard_normal(16))
lhs, rhs_exact, rhs_loose = triangular_norm_check(tri)
print(f"  ||L||_2 = {lhs:.4f} <= (1/2 + L_17) ||L+L^H||_2 = {rhs_exact:.4f}"
      f" <= (ln 17 + 3) ||L+L^H||_2 = {rhs_loose:.4f}")

print("\ncertificate sweep (m=16, n=8), empirical drift vs bound:")
for target in (0.05, 0.2, 0.5):
    a = gen_ginibre(16, rng)[:, :8]
    e = gen_ginibre(16, rng)[:, :8]
    e *= target * np.linalg.svd(a, compute_uv=False)[-1] / np.linalg.norm(e, 2)
    cert = qr_perturb_certificate(a, e)
    print(f"  ||A^+|| ||E|| = {cert.alpha_arg:.2f}: measured {cert.empirical_w_norm:.3e}"
          f"  <=  bound {cert.bound_value:.3e}")

print("\ntrailing-block alignment of two nearby full QR factorizations:")
q = gen_haar(16, rng)
u_mat = full_qr(q + 1e-4 * gen_ginibre(16, rng)).Q
w, residual = align_complement(q, u_mat)
delta = np.linalg.norm(q[:, :8] - u_mat[:, :8], 2)
print(f"  ||Q_1 - U_1|| = {delta:.3e}; aligned residual ||Q_2 - U_2 W|| = {residual:.3e}"
      f" (bound 4 delta = {4 * delta:.3e})")
