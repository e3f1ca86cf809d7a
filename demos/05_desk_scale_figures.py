"""Desk-scale reproduction of the headline experiments, with CSV/SVG output.

Smaller than the acceptance-suite runs (n=64, fewer trials) so it finishes
in seconds; bump n/trials to match the acceptance configuration. Runs these
three CLI commands through `pencilpow.harness.cli.main`, each writing its
experiment's CSV, SVG and manifest into ./figure_output/<experiment>/, and
prints medians read back from the CSVs:

    pencilpow run --experiment toy_identity --n 64 --trials 10 --p-max 12 --seed 1 \
        --out figure_output/toy_identity
    pencilpow run --experiment general_square --spectrum annulus --n 64 --trials 10 \
        --p-max 10 --seed 2 --out figure_output/general_square
    pencilpow run --experiment condition_evolution --spectrum disk --n 64 --trials 20 \
        --p-max 6 --seed 3 --out figure_output/condition_evolution
"""

import os

import numpy as np

from pencilpow.harness.cli import main
from pencilpow.harness.emit import parse_csv

OUT = "figure_output"


def run(experiment, flags):
    """``pencilpow run --experiment <experiment> --n 64 <flags>``; the records of its CSV."""
    out = os.path.join(OUT, experiment)
    main(["run", "--experiment", experiment, "--n", "64", *flags.split(), "--out", out])
    return parse_csv(os.path.join(out, f"{experiment}.csv"))[1]


def median_by_p(records, attr):
    by_p = {}
    for r in records:
        v = getattr(r, attr)
        if not np.isnan(v):
            by_p.setdefault(r.p, []).append(v)
    return {p: np.median(v) for p, v in sorted(by_p.items())}


# benign toy pencil: the implicit path wins at every step
records = run("toy_identity", "--trials 10 --p-max 12 --seed 1")
print("toy identity, median log10 errors:")
for p, m in median_by_p(records, "err_irs").items():
    print(f"  p={p:>2}: irs {np.log10(m):6.1f}   es {np.log10(median_by_p(records, 'err_es')[p]):6.1f}")

# annulus spectrum: the implicit advantage ends at a crossover
records = run("general_square", "--spectrum annulus --trials 10 --p-max 10 --seed 2")
mi = median_by_p(records, "err_irs")
me = median_by_p(records, "err_es")
cross = [p for p in mi if p in me and me[p] < mi[p]]
print(f"\nannulus run: explicit squaring overtakes at p = {min(cross) if cross else 'n/a'}")

# the first implicit steps shrink kappa(A_p) for disk spectra
records = run("condition_evolution", "--spectrum disk --trials 20 --p-max 6 --seed 3")
k0 = np.mean([r.kappa_a_input for r in records if r.p == 1])
print(f"\ndisk spectrum, mean kappa(A_0) = {k0:.1f}; per step:")
for p in range(1, 7):
    kp = np.mean([r.kappa_ap for r in records if r.p == p])
    print(f"  p={p}: mean kappa(A_p) = {kp:.1f}")
