"""The benchmark's tracer and workloads still fit the library.

``perfbench/tracing.py`` wraps library functions by name and checks its
``kernels.full_qr`` / ``matmul`` / ``invert`` spans against `count_kernels`.
A renamed function, or a QR billed outside `full_qr`, would otherwise surface
only as a benchmark run reporting ``correct: false``. Each workload of
``perfbench/workloads.py`` also runs one op through its own check, so a
library change that fails it shows here, not as a ``pass_ratio`` of 0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pencilpow

ROOT = Path(__file__).resolve().parents[1]

# Runs in a fresh interpreter: the tracer imports scipy, whose second
# OpenBLAS pool would slow every later test in this process.
CODE = """
import importlib
import numpy as np
import tracing
import workloads
from pencilpow import expm, squaring
from pencilpow.harness import experiments, generators

for module, attr, _, _ in tracing.TRACED:
    assert hasattr(importlib.import_module(module), attr), (module, attr)

rng = generators.rng_from_seed(8)
a, b = generators.gen_ginibre(40, rng), generators.gen_ginibre(40, rng)
m = 3.0 * generators.gen_ginibre(16, rng)
m0 = 0.1 * generators.gen_ginibre(16, rng)
ops = {
    "projector": lambda: squaring.spectral_projector(squaring.irs(a, b, 3)),
    "expm": lambda: [expm.expm(m, expm.ExpmConfig(squaring_backend=backend))
                     for backend in ("explicit", "irs")],
    "general_square": lambda: experiments.run_experiment(experiments.ExperimentConfig(
        experiment="general_square", n=8, trials=1, p_max=4, seed=8)),
    # s = 0: both backends invert the Pade pencil once and bill no QR
    "expm_s0": lambda: [expm.expm(m0, expm.ExpmConfig(squaring_backend=backend))
                        for backend in ("explicit", "irs")],
}
tracer = tracing.Tracer()
with tracer.installed():
    for index, (name, op) in enumerate(ops.items()):
        with tracer.op_scope(index) as record:
            op()
        assert tracing.reconcile(record) == [], (name, tracing.reconcile(record))
        scalings = [s.value for s in record.spans if s.name == "expm.select_scaling"]
        if name == "expm_s0":
            assert scalings == [0, 0], scalings
            continue
        assert record.kernel_counts.qr > 0, name
        if name == "expm":
            assert len(scalings) == 2 and min(scalings) >= 1, scalings

for name, workload in workloads.WORKLOADS.items():
    state = workload.setup(1, ".")
    assert workload.check(state, 0, workload.op(state, 0)).passed, name
"""


def test_tracer_reconciles_with_count_kernels(tmp_path):
    src = os.path.dirname(os.path.dirname(pencilpow.__file__))
    path = [str(ROOT / "perfbench"), src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    result = subprocess.run(
        [sys.executable, "-c", CODE],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
