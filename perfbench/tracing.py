"""Span tracing of pencilpow's layer boundaries, done from outside the library.

`Tracer.installed()` replaces each traced public function, in every pencilpow
module that bound it by name (``expm.irs``, ``experiments.irs_step``,
``kernels.as_matrix`` ...), with a wrapper that records a span while an op is
open, and puts the originals back on exit. ``numpy.linalg.svd``,
``numpy.linalg.qr`` and ``scipy.linalg.solve_triangular`` are wrapped the
same way as leaf spans. Nothing under ``src/`` changes.

A span is ``(name, start, end, parent, op, value)``: ``parent`` indexes the
enclosing span of the same op (-1 at the top), and ``value`` is a number the
wrapper derived from the call (computed flops, or the selected scaling s).
"""

import functools
import statistics
import sys
import warnings
from collections import namedtuple
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import scipy.linalg

from pencilpow import kernels
from pencilpow.errors import RankDeficientStackWarning

Span = namedtuple("Span", "name start end parent op value")


def _qr_gflop(args, kwargs, result):
    """Computed LAPACK count for xGEQRF plus xUNGQR forming the full m-by-m Q.

    Real-arithmetic counts times four for complex data.
    """
    m, n = np.shape(args[0])
    real = 2.0 * n * n * (m - n / 3.0) + 4.0 * m * m * n - 4.0 * m * n * n + 4.0 * n ** 3 / 3.0
    return 4.0 * real * 1e-9


def _matmul_gflop(args, kwargs, result):
    """Computed count of a classical complex product: 8 m k n real flops."""
    m, k = np.shape(args[0])
    return 8.0 * m * k * np.shape(args[1])[1] * 1e-9


def _scaling(args, kwargs, result):
    return float(result)


def _expm_name(args, kwargs):
    config = kwargs.get("config", args[1] if len(args) > 1 else None)
    backend = config.squaring_backend if config is not None else "explicit"
    return f"expm.{backend}"


# (module, function, span name, value function); a callable span name is
# evaluated on the call's arguments.
TRACED = (
    ("pencilpow.squaring", "irs_step", "squaring.irs_step", None),
    ("pencilpow.squaring", "irs", "squaring.irs", None),
    ("pencilpow.squaring", "implicit_to_explicit", "squaring.implicit_to_explicit", None),
    ("pencilpow.squaring", "spectral_projector", "squaring.spectral_projector", None),
    ("pencilpow.squaring", "explicit_squaring", "squaring.explicit_squaring", None),
    ("pencilpow.kernels", "matmul", "kernels.matmul", _matmul_gflop),
    ("pencilpow.kernels", "full_qr", "kernels.full_qr", _qr_gflop),
    ("pencilpow.kernels", "invert", "kernels.invert", None),
    ("pencilpow.kernels", "svd", "kernels.svd", None),
    ("pencilpow.kernels", "spectral_norm", "kernels.spectral_norm", None),
    ("pencilpow.kernels", "smallest_singular", "kernels.smallest_singular", None),
    ("pencilpow.precision", "as_matrix", "precision.as_matrix", None),
    ("pencilpow.precision", "square_matrix", "precision.square_matrix", None),
    ("pencilpow.expm", "expm", _expm_name, None),
    ("pencilpow.expm", "select_scaling", "expm.select_scaling", _scaling),
    ("pencilpow.expm", "pade_numerator_denominator", "expm.pade", None),
    ("pencilpow.harness.generators", "rng_from_seed", "harness.generators.rng_from_seed", None),
    ("pencilpow.harness.generators", "gen_ginibre", "harness.generators.gen_ginibre", None),
    ("pencilpow.harness.generators", "gen_haar", "harness.generators.gen_haar", None),
    ("pencilpow.harness.generators", "make_ill_conditioned",
     "harness.generators.make_ill_conditioned", None),
    ("pencilpow.harness.generators", "sample_spectrum", "harness.generators.sample_spectrum", None),
    ("pencilpow.harness.generators", "build_test_pencil",
     "harness.generators.build_test_pencil", None),
    ("pencilpow.harness.experiments", "run_experiment", "harness.experiments.run_experiment", None),
    ("pencilpow.harness.experiments", "run_square_experiment",
     "harness.experiments.run_square_experiment", None),
    ("pencilpow.harness.experiments", "run_condition_evolution",
     "harness.experiments.run_condition_evolution", None),
    ("pencilpow.harness.experiments", "run_expm_experiment",
     "harness.experiments.run_expm_experiment", None),
    ("pencilpow.harness.experiments", "run_bound_report",
     "harness.experiments.run_bound_report", None),
    ("pencilpow.harness.emit", "emit_csv", "harness.emit.emit_csv", None),
    ("pencilpow.harness.emit", "parse_csv", "harness.emit.parse_csv", None),
)

# LAPACK entry points, patched on the package object the library reads them from.
LEAVES = (
    (np.linalg, "svd", "lapack.svd"),
    (np.linalg, "qr", "lapack.qr"),
    (scipy.linalg, "solve_triangular", "lapack.trsm"),
)


class Tracer:
    """Collects the spans of one op at a time; inactive between ops."""

    def __init__(self):
        self.op = None
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, fn, name, value):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                tracer._stack.pop()
                label = name(args, kwargs) if callable(name) else name
                measured = value(args, kwargs, result) if value and result is not None else None
                tracer.spans[index] = Span(label, start, end, parent, tracer.op, measured)

        return traced

    def _patch(self, namespace, attr, replacement):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, replacement)

    def install(self):
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "pencilpow" or key.startswith("pencilpow."))
        ]
        for module_name, attr, name, value in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name, value)
            for module in modules:
                for key, bound in list(vars(module).items()):
                    if bound is original:
                        self._patch(module, key, wrapper)
        for namespace, attr, name in LEAVES:
            self._patch(namespace, attr, self._wrap(getattr(namespace, attr), name, None))

    def uninstall(self):
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def op_scope(self, op_id):
        """Trace one op; yields an `OpRecord` filled in when the scope exits.

        The op also runs under `count_kernels` and with rank-deficiency
        warnings recorded, so the trace can be reconciled and counted.
        """
        record = OpRecord()
        self.op, self.spans, self._stack = op_id, [], []
        try:
            with warnings.catch_warnings(record=True) as caught, \
                    kernels.count_kernels() as counts:
                warnings.simplefilter("always", RankDeficientStackWarning)
                yield record
        finally:
            self.op = None
            record.spans, self.spans = self.spans, []
            record.kernel_counts = counts
            record.rank_warnings = sum(
                issubclass(w.category, RankDeficientStackWarning) for w in caught
            )


class OpRecord:
    """The spans, kernel counts and warnings of one traced op."""

    def __init__(self):
        self.spans = []
        self.kernel_counts = None
        self.rank_warnings = 0


# -- per-op analysis ---------------------------------------------------------

# Spans a leaf is attributed to when broken down by parent: the nearest
# enclosing span whose name starts with one of these prefixes.
OWNERS = (
    ("irs_step", "squaring.irs_step"),
    ("invert", "kernels.invert"),
    ("generators", "harness.generators."),
)
# (leaf, owner) splits reported as lapack.<leaf>.in_<owner>.ms. The other
# non-empty splits are stage metrics already: SVD in irs_step is diagnose_ms,
# in invert guard_ms, directly in the runner svd_ms; trsm in invert is solve_ms.
BREAKDOWN = (("svd", "generators"), ("qr", "irs_step"), ("qr", "invert"), ("qr", "generators"))


def _is(prefix):
    return lambda span: span.name == prefix or span.name.startswith(prefix + ".")


def _ancestors(spans, span):
    while span.parent >= 0:
        span = spans[span.parent]
        yield span


def _owner(spans, span):
    for ancestor in _ancestors(spans, span):
        for owner, prefix in OWNERS:
            if ancestor.name.startswith(prefix):
                return owner
    return "other"


def _outermost(spans, match):
    """Spans matching ``match`` with no matching ancestor (no double counting)."""
    return [
        s for s in spans
        if match(s) and not any(match(a) for a in _ancestors(spans, s))
    ]


def _ms(selected):
    return 1e3 * sum(s.end - s.start for s in selected)


def self_times(spans):
    """Per span, its duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def billed(spans, name):
    """Spans of ``name`` outside any `invert`, the calls `count_kernels` bills."""
    return [
        s for s in spans
        if s.name == name and not any(a.name == "kernels.invert" for a in _ancestors(spans, s))
    ]


def reconcile(record):
    """Traced billed counts against `count_kernels`; returns a list of mismatches."""
    traced = {
        "matmul": len(billed(record.spans, "kernels.matmul")),
        "qr": len(billed(record.spans, "kernels.full_qr")),
        "inv": len(billed(record.spans, "kernels.invert")),
    }
    counts = record.kernel_counts
    return [
        f"{kind}: traced {n}, count_kernels {getattr(counts, kind)}"
        for kind, n in traced.items() if n != getattr(counts, kind)
    ]


def op_metrics(record):
    """Per-layer metrics of one traced op (times in ms, per op)."""
    spans = record.spans
    selfs = self_times(spans)
    owner = [_owner(spans, s) if s.name.startswith("lapack.") else None for s in spans]

    def named(name):
        return [s for s in spans if s.name == name]

    def under(name, owner_name):
        return [s for s, o in zip(spans, owner) if s.name == name and o == owner_name]

    def stage(name, parent_name):
        return [s for s in spans if s.name == name and s.parent >= 0
                and spans[s.parent].name == parent_name]

    m = {}
    steps = named("squaring.irs_step")
    m["squaring.irs_step.calls"] = len(steps)
    m["squaring.irs_step.ms"] = _ms(steps)
    m["squaring.irs_step.self_ms"] = 1e3 * sum(
        t for s, t in zip(spans, selfs) if s.name == "squaring.irs_step")
    m["squaring.irs_step.ms_per_call"] = _ms(steps) / len(steps) if steps else 0.0
    m["squaring.irs_step.diagnose_ms"] = _ms(under("lapack.svd", "irs_step"))
    m["squaring.irs_step.factor_ms"] = _ms(stage("kernels.full_qr", "squaring.irs_step"))
    m["squaring.irs_step.apply_ms"] = _ms(stage("kernels.matmul", "squaring.irs_step"))
    for name in ("implicit_to_explicit", "spectral_projector", "explicit_squaring"):
        m[f"squaring.{name}.ms"] = _ms(named(f"squaring.{name}"))
    m["squaring.rank_warnings"] = record.rank_warnings

    for kernel in ("full_qr", "matmul"):
        calls = billed(spans, f"kernels.{kernel}")
        ms = _ms(calls)
        gflop = sum(s.value for s in calls)
        m[f"kernels.{kernel}.calls"] = len(calls)
        m[f"kernels.{kernel}.ms"] = ms
        m[f"kernels.{kernel}.gflop"] = gflop
        m[f"kernels.{kernel}.gflop_per_s"] = gflop / (ms * 1e-3) if ms > 0 else 0.0
    inverts = _outermost(spans, _is("kernels.invert"))
    m["kernels.invert.calls"] = len(named("kernels.invert"))
    m["kernels.invert.ms"] = _ms(inverts)
    m["kernels.invert.ms_per_call"] = _ms(inverts) / len(inverts) if inverts else 0.0
    m["kernels.invert.guard_ms"] = _ms(under("lapack.svd", "invert"))
    m["kernels.invert.factor_ms"] = _ms(stage("kernels.full_qr", "kernels.invert"))
    m["kernels.invert.solve_ms"] = _ms(under("lapack.trsm", "invert"))

    as_matrix = named("precision.as_matrix")
    m["precision.as_matrix.calls"] = len(as_matrix)
    m["precision.as_matrix.ms"] = _ms(as_matrix)

    for name in ("expm.explicit", "expm.irs", "expm.pade", "expm.select_scaling"):
        m[f"{name}.ms"] = _ms(_outermost(spans, _is(name)))
    scalings = [s.value for s in named("expm.select_scaling")]
    m["expm.s_mean"] = statistics.fmean(scalings) if scalings else 0.0

    runners = _outermost(spans, _is("harness.experiments"))
    m["harness.experiments.ms"] = _ms(runners)
    m["harness.experiments.self_ms"] = 1e3 * sum(
        t for s, t in zip(spans, selfs) if s.name.startswith("harness.experiments."))
    m["harness.experiments.svd_ms"] = _ms([
        s for s in spans if s.name == "lapack.svd" and s.parent >= 0
        and spans[s.parent].name.startswith("harness.experiments.")])
    m["harness.generators.ms"] = _ms(_outermost(spans, _is("harness.generators")))
    m["harness.emit.ms"] = _ms(_outermost(spans, _is("harness.emit")))

    for leaf in ("svd", "qr", "trsm"):
        calls = named(f"lapack.{leaf}")
        m[f"lapack.{leaf}.calls"] = len(calls)
        m[f"lapack.{leaf}.ms"] = _ms(calls)
    for leaf, owner_name in BREAKDOWN:
        m[f"lapack.{leaf}.in_{owner_name}.ms"] = _ms(under(f"lapack.{leaf}", owner_name))
    m["trace.spans"] = len(spans)
    return m


def spans_to_rows(record):
    """JSON-ready rows of one op's spans, times relative to its first span."""
    if not record.spans:
        return []
    t0 = min(s.start for s in record.spans)
    return [
        {"op": s.op, "id": i, "parent": s.parent, "name": s.name,
         "start_ms": 1e3 * (s.start - t0), "end_ms": 1e3 * (s.end - t0), "value": s.value}
        for i, s in enumerate(record.spans)
    ]
