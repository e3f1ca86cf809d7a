"""Implicit vs. explicit squaring of A^-1 B on a constructed pencil.

We build B = A V D V^H from a Haar unitary V and a diagonal D, so the exact
power (A^-1 B)^(2^p) = V D^(2^p) V^H is known in closed form. Implicit
repeated squaring never forms A^-1 B: each step is a QR factorization of the
stacked pair plus two multiplications, and the single inversion happens at
the very end.
"""

from itertools import islice

import numpy as np

from pencilpow.harness.generators import build_test_pencil, gen_ginibre, gen_haar, sample_spectrum
from pencilpow.squaring import explicit_iter, implicit_to_explicit, irs_iter

n, p_max, seed = 32, 8, 12345

rng = np.random.Generator(np.random.Philox(seed))
a = gen_ginibre(n, rng)
v = gen_haar(n, rng)
d = sample_spectrum("annulus", n, rng, r_lo=0.6, r_hi=1.0)
pencil, oracle = build_test_pencil(a, v, d)

print(f"pencil: n={n}, eigenvalue moduli in [0.6, 1.0]")
print(f"{'p':>3} {'implicit rel err':>18} {'explicit rel err':>18}")
# irs_iter and explicit_iter each advance one run step by step instead of
# restarting it for each p; kappa(A_j) of each step's input block comes from
# A_0 and the runs' A_p
kappa_a = [np.linalg.cond(pencil.a)]
runs = islice(irs_iter(pencil.a, pencil.b), 1, p_max + 1)
for run, explicit in zip(runs, islice(explicit_iter(pencil.a, pencil.b), 1, None)):
    p = run.p
    kappa_a.append(np.linalg.cond(run.a_p))
    target = oracle(p)
    target_norm = np.linalg.norm(target, 2)
    err_irs = np.linalg.norm(implicit_to_explicit(run) - target, 2) / target_norm
    err_es = np.linalg.norm(explicit - target, 2) / target_norm
    print(f"{p:>3} {err_irs:>18.3e} {err_es:>18.3e}")

# the per-step trace of the last run records what each step certified about
# its stack: ||(A_j;B_j)||_2 <= ||R_11||_F and sigma_n >= 1/||R_11^-1||_F
print("\nper-step diagnostics of the full run:")
print(f"{'j':>3} {'||(A_j;B_j)||_2 <=':>19} {'sigma_n(stack) >=':>18} {'kappa(A_j)':>12}")
for t, kappa in zip(run.trace, kappa_a):
    print(f"{t.step_index:>3} {t.norm_stack_ub:>19.4f} {t.sigma_n_lb:>18.4e} {kappa:>12.1f}")
