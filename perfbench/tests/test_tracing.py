"""Self-tests of the benchmark's tracer: run with ``python3 -m pytest perfbench/tests``."""

import numpy as np
import pytest
import scipy.linalg

import tracing
import workloads


def _traced_op(workload_name, tmp_path, index=0):
    workload = workloads.WORKLOADS[workload_name]
    state = workload.setup(3, str(tmp_path))
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.op_scope(index) as record:
            outputs = workload.op(state, index)
    assert workload.check(state, index, outputs).passed
    return record


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_reconcile_with_count_kernels(name, tmp_path):
    record = _traced_op(name, tmp_path)
    assert tracing.reconcile(record) == []
    assert record.kernel_counts.matmul > 0 and record.kernel_counts.inv > 0


def test_pencil_power_counts(tmp_path):
    record = _traced_op("pencil_power", tmp_path)
    counts = record.kernel_counts
    assert (counts.qr, counts.matmul, counts.inv) == (10, 21, 1)
    m = tracing.op_metrics(record)
    assert m["squaring.irs_step.calls"] == 10
    assert (m["kernels.full_qr.calls"], m["kernels.matmul.calls"], m["kernels.invert.calls"]) == (
        10, 21, 1)
    # default diagnostics: one stack SVD and two block SVDs per step
    svd_in_steps = [
        s for s in record.spans
        if s.name == "lapack.svd" and record.spans[s.parent].name == "squaring.irs_step"
    ]
    assert len(svd_in_steps) == 30
    assert m["lapack.svd.calls"] == 31  # plus the guard SVD of the one invert
    assert m["lapack.qr.calls"] == 11  # the invert's own QR is not billed by count_kernels


def test_stage_times_lie_within_their_parents(tmp_path):
    m = tracing.op_metrics(_traced_op("experiment_sweep", tmp_path))
    stages = ("diagnose_ms", "factor_ms", "apply_ms")
    assert sum(m[f"squaring.irs_step.{s}"] for s in stages) <= m["squaring.irs_step.ms"]
    inner = ("guard_ms", "factor_ms", "solve_ms")
    assert sum(m[f"kernels.invert.{s}"] for s in inner) <= m["kernels.invert.ms"]
    assert 0 < m["harness.experiments.self_ms"] < m["harness.experiments.ms"]


def test_uninstall_restores_every_binding():
    import pencilpow.expm
    import pencilpow.harness.experiments
    import pencilpow.kernels

    before = (
        pencilpow.expm.irs, pencilpow.harness.experiments.irs_step,
        pencilpow.kernels.as_matrix, pencilpow.kernels.square_matrix,
        np.linalg.svd, np.linalg.qr, scipy.linalg.solve_triangular,
    )
    tracer = tracing.Tracer()
    with tracer.installed():
        assert pencilpow.expm.irs is not before[0]
        assert pencilpow.harness.experiments.irs_step is not before[1]
        assert np.linalg.svd is not before[4]
    after = (
        pencilpow.expm.irs, pencilpow.harness.experiments.irs_step,
        pencilpow.kernels.as_matrix, pencilpow.kernels.square_matrix,
        np.linalg.svd, np.linalg.qr, scipy.linalg.solve_triangular,
    )
    assert all(a is b for a, b in zip(before, after))


def test_self_time_subtracts_direct_children_only():
    Span = tracing.Span
    spans = [
        Span("outer", 0.0, 10.0, -1, 0, None),
        Span("child", 1.0, 4.0, 0, 0, None),
        Span("grandchild", 2.0, 3.0, 1, 0, None),
        Span("child", 5.0, 6.0, 0, 0, None),
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_benchmark_json(trace, capsys):
    import json
    from pathlib import Path

    import run

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert run.main(["--workload", "expm_n128", "--seed", "1", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
