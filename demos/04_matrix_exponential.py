"""Scaling and squaring with an implicit final stage.

The exponential of M = V D V^-1 is known exactly as V e^D V^-1, so we can
watch what happens as the eigenvector matrix V becomes ill conditioned:
the 1-norm of M grows, the scaling step count s grows with it, and the
implicit backend (which postpones the inversion through all s squarings)
starts to pull ahead of the classic explicit squaring.
"""

import numpy as np

from pencilpow.expm import ExpmConfig, expm, select_scaling
from pencilpow.harness.generators import gen_ginibre, make_ill_conditioned, sample_spectrum

n, seed = 48, 31415
print(f"{'delta':>8} {'kappa(V)':>10} {'s':>3} {'explicit err':>14} {'implicit err':>14}")
for delta in (1.0, 1e-1, 1e-2, 1e-3, 1e-4):
    rng = np.random.Generator(np.random.Philox(seed))
    g = gen_ginibre(n, rng)
    v = make_ill_conditioned(g, delta)
    d = sample_spectrum("disk", n, rng)
    v_inv = np.linalg.inv(v)
    m = (v * d[None, :]) @ v_inv
    reference = (v * np.exp(d)[None, :]) @ v_inv
    ref_norm = np.linalg.norm(reference, 2)

    s = select_scaling(m)
    errs = {}
    for backend in ("explicit", "irs"):
        result = expm(m, ExpmConfig(squaring_backend=backend))
        errs[backend] = np.linalg.norm(result - reference, 2) / ref_norm
    sv = np.linalg.svd(v, compute_uv=False)
    print(f"{delta:>8.0e} {sv[0] / sv[-1]:>10.1e} {s:>3} "
          f"{errs['explicit']:>14.3e} {errs['irs']:>14.3e}")
