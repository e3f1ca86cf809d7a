"""Desk-scale reproduction of the headline experiments, with CSV/SVG output.

Smaller than the acceptance-suite runs (n=64, fewer trials) so it finishes
in seconds; bump n/trials to match the acceptance configuration. Writes one
CSV + SVG per experiment into ./figure_output/. Equivalent CLI commands:

    pencilpow run --experiment toy_identity --n 64 --trials 10 --p-max 12 --out figure_output
    pencilpow run --experiment general_square --spectrum annulus ...
    pencilpow run --experiment condition_evolution --spectrum disk ...
"""

import os

import numpy as np

from pencilpow.harness.emit import emit_csv, emit_svg, write_manifest
from pencilpow.harness.experiments import (
    ExperimentConfig,
    run_condition_evolution,
    run_square_experiment,
)

OUT = "figure_output"
os.makedirs(OUT, exist_ok=True)


def median_by_p(records, attr):
    by_p = {}
    for r in records:
        v = getattr(r, attr)
        if not np.isnan(v):
            by_p.setdefault(r.p, []).append(v)
    return {p: np.median(v) for p, v in sorted(by_p.items())}


# benign toy pencil: the implicit path wins at every step
config = ExperimentConfig(experiment="toy_identity", n=64, trials=10, p_max=12, seed=1)
records = run_square_experiment(config)
emit_csv(records, os.path.join(OUT, "toy_identity.csv"), "toy_identity")
emit_svg(records, os.path.join(OUT, "toy_identity.svg"), title="toy identity: log10 error vs p")
print("toy identity, median log10 errors:")
for p, m in median_by_p(records, "err_irs").items():
    print(f"  p={p:>2}: irs {np.log10(m):6.1f}   es {np.log10(median_by_p(records, 'err_es')[p]):6.1f}")

# annulus spectrum: the implicit advantage ends at a crossover
config = ExperimentConfig(
    experiment="general_square", n=64, trials=10, p_max=10, spectrum="annulus", seed=2
)
records = run_square_experiment(config)
emit_csv(records, os.path.join(OUT, "general_square.csv"), "general_square")
emit_svg(records, os.path.join(OUT, "general_square.svg"), title="annulus spectrum")
mi = median_by_p(records, "err_irs")
me = median_by_p(records, "err_es")
cross = [p for p in mi if p in me and me[p] < mi[p]]
print(f"\nannulus run: explicit squaring overtakes at p = {min(cross) if cross else 'n/a'}")

# the first implicit steps shrink kappa(A_p) for disk spectra
config = ExperimentConfig(
    experiment="condition_evolution", n=64, trials=20, p_max=6, spectrum="disk", seed=3
)
records = run_condition_evolution(config)
emit_csv(records, os.path.join(OUT, "condition_evolution.csv"), "condition_evolution")
emit_svg(records, os.path.join(OUT, "condition_evolution.svg"), title="kappa(A_p) evolution")
k0 = np.mean([r.kappa_a_input for r in records if r.p == 1])
print(f"\ndisk spectrum, mean kappa(A_0) = {k0:.1f}; per step:")
for p in range(1, 7):
    kp = np.mean([r.kappa_ap for r in records if r.p == p])
    print(f"  p={p}: mean kappa(A_p) = {kp:.1f}")

write_manifest(os.path.join(OUT, "manifest.txt"), config)
print(f"\nwrote CSV/SVG pairs into {OUT}/")
