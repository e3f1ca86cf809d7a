"""Run one pencilpow benchmark workload and print its metrics.

From the root of a pencilpow checkout::

    python3 perfbench/run.py --workload pencil_power --seed 1 --seconds 30 --trace 0

One client drives the workload as a closed loop for ``--seconds`` seconds and
checks every op against the workload's reference. ``--trace 0`` measures with
tracing off and reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced ops on the same inputs and reports the per-layer metrics
from the traced ones, plus ``trace.overhead_ratio``; each traced op is also
reconciled with `count_kernels`. The BLAS thread count is never set here;
the environment block records what the run used.

``setup_s`` is the time from process start to the first timed op: the median
of IMPORT_REPEATS fresh interpreters importing pencilpow, plus the median of
SETUP_REPEATS rounds of input generation and one warm-up op.

Standard output ends with two JSON lines, the run's details (environment,
tail percentile, failures) and then the result
``{"correct", "attempted", "failed", "metrics"}``. Both, and in traced runs the
span file, are also written under ``perfbench/results/``.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: set-up is repeated and its median reported, so one slow repeat does not show
SETUP_REPEATS = 3
#: fresh interpreters timed importing pencilpow; the median is set-up's import part
IMPORT_REPEATS = 5
#: op_tail_ms is the highest percentile with at least this many samples beyond
#: it, capped at p99: above that, a run's few worst scheduler stalls decide it
TAIL_SAMPLES = 10
TAIL_CAP = 99  # percent
#: traced ops whose spans are written to the span file (all are summarised)
SPAN_FILE_OPS = 32
#: per-op work counts only some workloads produce; 0 where they do not
WORK_COUNTS = ("harness.rows", "harness.sentinel_rows")


def _load_library():
    """Import pencilpow from this checkout's ``src/``; exit if it is not there."""
    package = ROOT / "src" / "pencilpow"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {package} not found; run from a pencilpow checkout")
    sys.path.insert(0, str(package.parent))
    import pencilpow

    if Path(pencilpow.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: pencilpow imported from {pencilpow.__file__}, not {package}")


def _import_seconds():
    """Wall time of fresh interpreters importing this checkout's pencilpow."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import pencilpow"
    seconds = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        seconds.append(time.perf_counter() - start)
    return seconds


def _tail(times):
    """(value, percentile, samples beyond) of the op_tail_ms percentile.

    The highest percentile with TAIL_SAMPLES samples beyond it, at most
    TAIL_CAP and never below the median.
    """
    ordered = sorted(times)
    n = len(ordered)
    beyond = max(TAIL_SAMPLES, -(-n * (100 - TAIL_CAP) // 100))
    index = max(n - beyond - 1, (n - 1) // 2)
    return ordered[index], 100.0 * (index + 1) / n, n - index - 1


def _median(values):
    return statistics.median(values) if values else float("nan")


class Loop:
    """Closed-loop driver: one client, the next op after the last returned."""

    def __init__(self, workload, state):
        self.workload = workload
        self.state = state
        self.times = []
        self.digits = []
        self.failures = []

    def run_op(self, op_index, index, tracer=None):
        """Run, time and check one op on input ``index``.

        Returns ``(outputs, record)``: outputs are None when the op failed,
        record is the op's trace (None when untraced).
        """
        from pencilpow.errors import PencilPowError

        scope = tracer.op_scope(op_index) if tracer else contextlib.nullcontext()
        record = None
        try:
            with scope as record:
                start = time.perf_counter()
                try:
                    outputs = self.workload.op(self.state, index)
                finally:
                    self.times.append(time.perf_counter() - start)
        except Exception as exc:  # a failed op is counted, and the loop goes on
            self.failures.append({
                "op": op_index, "error": type(exc).__name__,
                "structured": isinstance(exc, PencilPowError), "message": str(exc)[:200],
            })
            return None, record
        check = self.workload.check(self.state, index, outputs)
        if math.isfinite(check.worst_ratio) and check.worst_ratio > 0:
            self.digits.append(math.log10(check.worst_ratio))
        if not check.passed:
            self.failures.append({
                "op": op_index, "error": "ReferenceMismatch", "structured": False,
                "message": f"worst rel_err/u = {check.worst_ratio:.3e}",
            })
            return None, record
        return outputs, record


def _setup(workload, seed, workdir, tracer=None):
    """Make the inputs and warm up, SETUP_REPEATS times.

    Returns the state, the seconds each repeat took and, when traced, the
    generator milliseconds of each repeat.
    """
    state, seconds, generator_ms = None, [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        scope = tracer.op_scope("setup") if tracer else contextlib.nullcontext()
        with scope as record:
            state = workload.setup(seed, workdir)
            outputs = workload.op(state, 0)
        seconds.append(time.perf_counter() - start)
        if not workload.check(state, 0, outputs).passed:
            raise SystemExit(f"perfbench: {workload.name} warm-up op failed its reference check")
        if tracer:
            import tracing

            generator_ms.append(tracing.op_metrics(record)["harness.generators.ms"])
    return state, seconds, generator_ms


def run_untraced(workload, seed, seconds, workdir, import_s):
    imports = _import_seconds()
    state, setup_runs, _ = _setup(workload, seed, workdir)
    loop = Loop(workload, state)
    phase_start = time.perf_counter()
    op_index = 0
    while time.perf_counter() - phase_start < seconds:
        loop.run_op(op_index, op_index)
        op_index += 1
    attempted = len(loop.times)
    tail_ms, percentile, beyond = _tail(loop.times)
    metrics = {
        "op_p50_ms": (1e3 * statistics.median(loop.times), "ms"),
        "op_tail_ms": (1e3 * tail_ms, "ms"),
        "ops_per_s": (attempted / sum(loop.times), "1/s"),
        "digits_lost_p50": (_median(loop.digits), "digits"),
        "pass_ratio": ((attempted - len(loop.failures)) / attempted, "ratio"),
        "setup_s": (statistics.median(imports) + statistics.median(setup_runs), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "op_tail_percentile": percentile, "op_tail_samples_beyond": beyond,
        "setup": {"import_s": imports, "inputs_and_warm_up_s": setup_runs,
                  "import_in_this_process_s": import_s},
        "op_times_ms": [1e3 * t for t in loop.times],
    }
    return attempted, loop.failures, metrics, detail, []


def layer_unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("gflop_per_s"):
        return "gflop/s_computed"
    if name.endswith(".gflop"):
        return "gflop_computed"
    if name.endswith("ms") or name.endswith("ms_per_call"):
        return "ms"
    if name == "expm.s_mean":
        return "steps"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "count"


def run_traced(workload, seed, seconds, workdir):
    import tracing

    tracer = tracing.Tracer()
    with tracer.installed():
        state, _, generator_ms = _setup(workload, seed, workdir, tracer)
        plain, traced = Loop(workload, state), Loop(workload, state)
        per_op, span_rows, mismatches = [], [], []
        phase_start = time.perf_counter()
        pair = 0
        while time.perf_counter() - phase_start < seconds:
            # both halves of a pair run the same input, so the ratio compares like with like
            plain.run_op(2 * pair, pair)
            outputs, record = traced.run_op(2 * pair + 1, pair, tracer)
            mismatches += [f"op {2 * pair + 1}: {m}" for m in tracing.reconcile(record)]
            if pair < SPAN_FILE_OPS:
                span_rows += tracing.spans_to_rows(record)
            if outputs is not None:
                metrics = dict.fromkeys(WORK_COUNTS, 0)
                metrics.update(tracing.op_metrics(record))
                if workload.work:
                    metrics.update(workload.work(outputs))
                per_op.append(metrics)
            pair += 1
    names = sorted(per_op[0]) if per_op else []
    metrics = {name: (_median([m[name] for m in per_op]), layer_unit(name)) for name in names}
    metrics["harness.generators.setup_ms"] = (_median(generator_ms), "ms")
    metrics["trace.overhead_ratio"] = (
        _median(traced.times) / _median(plain.times), layer_unit("trace.overhead_ratio"))
    detail = {"traced_ops": len(traced.times), "untraced_ops": len(plain.times),
              "reconcile_mismatches": mismatches[:20]}
    return (len(plain.times) + len(traced.times), plain.failures + traced.failures,
            metrics, detail, span_rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    _load_library()
    import_s = time.perf_counter() - _PROCESS_START
    import environment
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as workdir:
        if args.trace:
            attempted, failures, metrics, detail, spans = run_traced(
                workload, args.seed, args.seconds, workdir)
        else:
            attempted, failures, metrics, detail, spans = run_untraced(
                workload, args.seed, args.seconds, workdir, import_s)
    failed = len(failures)
    correct = failed == 0 and not detail.get("reconcile_mismatches")
    detail.update({
        "workload": workload.name, "size": workload.size, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "clients": 1, "loop": "closed",
        "fail_ratio": failed / attempted, "failures": failures[:20],
        "environment": environment.environment(),
    })
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    stem = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    if spans:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            fh.writelines(json.dumps(row) + "\n" for row in spans)
    print(json.dumps({"detail": {k: v for k, v in detail.items() if k != "op_times_ms"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
