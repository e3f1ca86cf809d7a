"""CSV, SVG, and manifest emission for experiment records and the bound report.

The one module that formats or parses a CSV cell, through `_fmt`. Floats,
+-inf included, are written with 17 significant digits (the bound report's
two ratios with 6) so binary64 values round-trip exactly; None and NaN, the
only sentinels (a failed step, an absent s), are empty fields, never fake
numbers. Records are stable-sorted by (trial, p) before emission so output
is reproducible regardless of how the records were produced.
"""

import math
from dataclasses import fields
from html import escape  # with quote=False, xml.sax.saxutils.escape without its imports

import numpy as np

from .. import kernels
from .experiments import TrialRecord

__all__ = ["CSV_HEADER", "emit_csv", "parse_csv", "emit_bound_csv", "emit_svg", "write_manifest"]

CSV_HEADER = "experiment,trial,p,err_irs,err_es,kappa_A_input,kappa_Ap,sigma_n_Ap,s_selected"

#: the `TrialRecord` fields after ``experiment``, in CSV order; every column
#: not in _PARSERS parses with `_parse_float`
_COLUMNS = tuple(f.name for f in fields(TrialRecord))
_PARSERS = {"trial": int, "p": int, "s_selected": lambda s: int(s) if s else None}

#: the bound report's columns, each a `BoundReportRow` attribute
_BOUND_COLUMNS = ("p", "err_irs", "bound_irs", "ratio_irs", "err_es", "bound_es", "ratio_es")


def _fmt(x, spec=".17g"):
    # None and NaN (failed steps, absent values) are the only sentinels and stay
    # empty fields; every other float, +-inf included, is written in ``spec``
    if x is None or x != x:
        return ""
    return format(x, spec) if isinstance(x, float) else str(x)


def _parse_float(s):
    return float(s) if s else float("nan")


def _write_lines(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def emit_csv(records, path, experiment):
    """Write records to ``path`` with the fixed header; returns the path."""
    if not records:
        raise ValueError("emit_csv requires at least one record")
    ordered = sorted(records, key=lambda r: (r.trial, r.p))
    return _write_lines(path, [CSV_HEADER] + [
        ",".join([experiment] + [_fmt(getattr(r, c)) for c in _COLUMNS]) for r in ordered
    ])


def parse_csv(path):
    """Inverse of `emit_csv`: returns ``(experiment, records)``.

    A row whose cell count differs from the header's, whose experiment
    differs from the first row's, or with a cell its column cannot parse
    raises ValueError naming ``path:line``.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: missing or unexpected header")
    rows = [ln.split(",") for ln in lines[1:]]
    experiment = rows[0][0] if rows else None
    records = []
    for lineno, cells in enumerate(rows, 2):
        if len(cells) != 1 + len(_COLUMNS) or cells[0] != experiment:
            raise ValueError(f"{path}:{lineno}: expected {1 + len(_COLUMNS)} cells of "
                             f"experiment {experiment!r}, got {lines[lineno - 1]!r}")
        values = {}
        for c, cell in zip(_COLUMNS, cells[1:]):
            try:
                values[c] = _PARSERS.get(c, _parse_float)(cell)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: column {c!r} cannot hold {cell!r}") from None
        records.append(TrialRecord(**values))
    return experiment, records


def emit_bound_csv(rows, path):
    """Write the bound report's `BoundReportRow`s to ``path``; returns the path."""
    return _write_lines(path, [",".join(_BOUND_COLUMNS)] + [
        ",".join(_fmt(getattr(row, c), ".6g" if c.startswith("ratio") else ".17g")
                 for c in _BOUND_COLUMNS)
        for row in rows
    ])


def _series_stats(records, attr):
    """Per-p mean and sample std (ddof=1) of one record attribute's finite values.

    `kernels._pow2_scaled` divides the values by 2^e, e the ``math.frexp``
    exponent of their largest modulus, so the squares in the std cannot
    overflow (errors of an exploding run reach 1e288). The scaling is exact:
    outside overflow and underflow the statistics are bit-identical to the
    unscaled ones.
    """
    by_p = {}
    for r in records:
        val = getattr(r, attr)
        if val is not None and math.isfinite(val):
            by_p.setdefault(r.p, []).append(val)
    stats = []
    for p in sorted(by_p):
        vals, e = kernels._pow2_scaled(np.asarray(by_p[p], dtype=np.float64))
        std = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
        stats.append((p, math.ldexp(float(np.mean(vals)), e), math.ldexp(std, e)))
    return stats


_SERIES_STYLE = {
    "err_irs": ("irs", "#1f77b4"),
    "err_es": ("es", "#d62728"),
    "kappa_ap": ("kappa_Ap", "#2ca02c"),
}

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 20, 36, 44


def _log10_floor(x):
    return math.log10(x) if x > 0 else -17.0


def emit_svg(records, path, title=""):
    """Line chart of log10 error (mean +/- one sample std) against p.

    One polyline per algorithm, with a translucent polygon band spanning
    mean +/- std. Records without error columns (condition-evolution runs)
    fall back to a single kappa_2(A_p) curve. Without a finite value to
    plot, the chart has its title and axes and no series.
    """
    if not records:
        raise ValueError("emit_svg requires at least one record")
    stats = {f: _series_stats(records, f) for f in ("err_irs", "err_es")}
    if not any(stats.values()):
        stats = {"kappa_ap": _series_stats(records, "kappa_ap")}
    # each series' (p, low, mid, high): log10 of mean - std (floored at 0), mean, mean + std
    rows = {
        f: [(p, _log10_floor(max(mean - std, 0.0)), _log10_floor(mean), _log10_floor(mean + std))
            for p, mean, std in pts]
        for f, pts in stats.items() if pts
    }

    all_p = sorted({row[0] for pts in rows.values() for row in pts})
    all_logs = [v for pts in rows.values() for row in pts for v in row[1:]]
    lo, hi = (min(all_logs) - 0.5, max(all_logs) + 0.5) if all_logs else (-0.5, 0.5)
    p_lo, p_hi = (min(all_p), max(all_p)) if all_p else (0, 1)
    if p_hi == p_lo:
        p_hi = p_lo + 1

    def sx(p):
        return _ML + (p - p_lo) / (p_hi - p_lo) * (_W - _ML - _MR)

    def sy(v):
        return _MT + (hi - v) / (hi - lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="20" text-anchor="middle" font-size="14">'
        f"{escape(title, quote=False)}</text>",
    ]
    # axes and ticks
    parts.append(
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>'
    )
    parts.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>')
    for p in all_p:
        parts.append(
            f'<text x="{sx(p):.1f}" y="{_H - _MB + 16}" text-anchor="middle" '
            f'font-size="10">{p}</text>'
        )
    n_ticks = 6
    for i in range(n_ticks + 1):
        v = lo + (hi - lo) * i / n_ticks
        parts.append(
            f'<text x="{_ML - 6}" y="{sy(v):.1f}" text-anchor="end" '
            f'font-size="10">{v:.1f}</text>'
        )
    parts.append(
        f'<text x="{_W / 2:.0f}" y="{_H - 8}" text-anchor="middle" font-size="11">p</text>'
    )
    parts.append(
        f'<text x="14" y="{_H / 2:.0f}" text-anchor="middle" font-size="11" '
        f'transform="rotate(-90 14 {_H / 2:.0f})">log10 value</text>'
    )

    for i, (f, pts) in enumerate(rows.items(), 1):
        label, color = _SERIES_STYLE[f]
        if len(pts) > 1:
            band = " ".join(
                [f"{sx(p):.1f},{sy(high):.1f}" for p, _, _, high in pts]
                + [f"{sx(p):.1f},{sy(low):.1f}" for p, low, _, _ in reversed(pts)]
            )
            parts.append(
                f'<polygon class="band-{label}" points="{band}" fill="{color}" '
                f'fill-opacity="0.15" stroke="none"/>'
            )
        line = " ".join(f"{sx(p):.1f},{sy(mid):.1f}" for p, _, mid, _ in pts)
        parts.append(
            f'<polyline class="mean-{label}" points="{line}" fill="none" '
            f'stroke="{color}" stroke-width="1.6"/>'
        )
        y_leg = _MT + 14 * i
        parts.append(
            f'<line x1="{_W - _MR - 110}" y1="{y_leg}" x2="{_W - _MR - 86}" '
            f'y2="{y_leg}" stroke="{color}" stroke-width="1.6"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 80}" y="{y_leg + 4}" font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    return _write_lines(path, parts)


def write_manifest(path, config, extra=None):
    """Echo the configuration, library version, and seed to a manifest file."""
    from .. import __version__

    lines = [f"pencilpow version = {__version__}"]
    for key, val in sorted(vars(config).items()):
        lines.append(f"{key} = {val}")
    for key, val in (extra or {}).items():
        lines.append(f"{key} = {val}")
    return _write_lines(path, lines)
