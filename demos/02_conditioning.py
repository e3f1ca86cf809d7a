"""Condition numbers for repeated squaring.

sigma_min of the big block matrix M_p(A, B) is computable from m = 2^p
small shifted pencils -A + e^{i theta} B over the m-th roots of -1. The
scale-invariant kappa_irs, the distance to the nearest unit-circle-singular
pencil, and Malyshev's omega all line up in one inequality chain.
"""

import numpy as np

from pencilpow.conditioning import (
    build_mp_dense,
    condition_chain_check,
    distance_ill_posed,
    kappa_irs,
    omega_malyshev,
    sigma_min_mp,
)
from pencilpow.harness.generators import build_test_pencil, gen_ginibre, gen_haar
from pencilpow.kernels import smallest_singular

n, seed = 4, 777
rng = np.random.Generator(np.random.Philox(seed))

# eigenvalues of (A, B) placed safely off the unit circle
a = gen_ginibre(n, rng)
v = gen_haar(n, rng)
lam = (1.4 + 0.3 * rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
pencil, _ = build_test_pencil(a, v, 1.0 / lam)
A, B = pencil.a, pencil.b

print("root formula vs dense construction of M_p:")
for p in (1, 2, 3):
    root = sigma_min_mp(A, B, p)
    dense = smallest_singular(build_mp_dense(A, B, p))
    print(f"  p={p}: roots-of-(-1) formula {root:.12f}   dense SVD {dense:.12f}")

print("\nkappa_irs grows (weakly) with p but stays under the p-free ceiling:")
d = distance_ill_posed(A, B)
stack_norm = np.linalg.norm(np.vstack([A, B]), 2)
for p in (1, 2, 4, 6):
    print(f"  p={p}: kappa_irs = {kappa_irs(A, B, p):.4f}   ceiling ||(A;B)||/d = {stack_norm / d:.4f}")

print(f"\ndistance to ill-posedness d = {d:.6f}")
print(f"omega (Malyshev criterion)  = {omega_malyshev(A, B):.6f}")

report = condition_chain_check(A, B, 3)
print("\ninequality chain (sigma_n(stack) >= sigma_min(M_p) >= d > tail):")
print(f"  {report.stack_sigma_n:.6f} >= {report.sigma_min_mp:.6f} >= {report.d_ab:.6f}")
print(f"  all links hold: {report.chain_ok}")
