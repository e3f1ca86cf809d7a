"""Desk-scale reproduction of the headline experiments, with CSV/SVG output.

Smaller than the acceptance-suite runs (n=64, fewer trials) so it finishes
in seconds; bump n/trials to match the acceptance configuration. Writes each
experiment's CSV, SVG and manifest into ./figure_output/<experiment>/, the
layout `pencilpow run --out` writes. Equivalent CLI commands (their SVGs
differ only in the title):

    pencilpow run --experiment toy_identity --n 64 --trials 10 --p-max 12 --seed 1 \
        --out figure_output/toy_identity
    pencilpow run --experiment general_square --spectrum annulus --n 64 --trials 10 \
        --p-max 10 --seed 2 --out figure_output/general_square
    pencilpow run --experiment condition_evolution --spectrum disk --n 64 --trials 20 \
        --p-max 6 --seed 3 --out figure_output/condition_evolution
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


def experiment_config(experiment, **settings):
    return ExperimentConfig(experiment=experiment, output_dir=os.path.join(OUT, experiment),
                            n=64, **settings)


def emit(config, records, title):
    """The CSV, SVG and manifest of one experiment, in its own directory."""
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    emit_csv(records, os.path.join(out, f"{config.experiment}.csv"), config.experiment)
    emit_svg(records, os.path.join(out, f"{config.experiment}.svg"), title=title)
    write_manifest(os.path.join(out, "manifest.txt"), config)


def median_by_p(records, attr):
    by_p = {}
    for r in records:
        v = getattr(r, attr)
        if not np.isnan(v):
            by_p.setdefault(r.p, []).append(v)
    return {p: np.median(v) for p, v in sorted(by_p.items())}


# benign toy pencil: the implicit path wins at every step
config = experiment_config("toy_identity", trials=10, p_max=12, seed=1)
records = run_square_experiment(config)
emit(config, records, "toy identity: log10 error vs p")
print("toy identity, median log10 errors:")
for p, m in median_by_p(records, "err_irs").items():
    print(f"  p={p:>2}: irs {np.log10(m):6.1f}   es {np.log10(median_by_p(records, 'err_es')[p]):6.1f}")

# annulus spectrum: the implicit advantage ends at a crossover
config = experiment_config("general_square", trials=10, p_max=10, spectrum="annulus", seed=2)
records = run_square_experiment(config)
emit(config, records, "annulus spectrum")
mi = median_by_p(records, "err_irs")
me = median_by_p(records, "err_es")
cross = [p for p in mi if p in me and me[p] < mi[p]]
print(f"\nannulus run: explicit squaring overtakes at p = {min(cross) if cross else 'n/a'}")

# the first implicit steps shrink kappa(A_p) for disk spectra
config = experiment_config("condition_evolution", trials=20, p_max=6, spectrum="disk", seed=3)
records = run_condition_evolution(config)
emit(config, records, "kappa(A_p) evolution")
k0 = np.mean([r.kappa_a_input for r in records if r.p == 1])
print(f"\ndisk spectrum, mean kappa(A_0) = {k0:.1f}; per step:")
for p in range(1, 7):
    kp = np.mean([r.kappa_ap for r in records if r.p == p])
    print(f"  p={p}: mean kappa(A_p) = {kp:.1f}")

print(f"\nwrote a CSV, SVG and manifest per experiment into {OUT}/<experiment>/")
