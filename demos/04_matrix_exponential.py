"""Scaling and squaring with an implicit final stage.

The exponential of M = V D V^-1 is known exactly as V e^D V^-1, so we can
watch what happens as the eigenvector matrix V becomes ill conditioned:
the 1-norm of M grows, the scaling step count s grows with it, and the
implicit backend (which postpones the inversion through all s squarings)
starts to pull ahead of the classic explicit squaring.
"""

from pencilpow.harness.experiments import ExperimentConfig, run_expm_experiment

print(f"{'delta':>8} {'kappa(V)':>10} {'s':>3} {'explicit err':>14} {'implicit err':>14}")
for delta in (1.0, 1e-1, 1e-2, 1e-3, 1e-4):
    # one expm_compare trial: M's draw, both backends and kappa(V) come from the runner
    (row,) = run_expm_experiment(
        ExperimentConfig(experiment="expm_compare", n=48, trials=1, delta=delta, seed=31415))
    print(f"{delta:>8.0e} {row.kappa_a_input:>10.1e} {row.s_selected:>3} "
          f"{row.err_es:>14.3e} {row.err_irs:>14.3e}")
