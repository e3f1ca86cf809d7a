"""Command-line interface.

    pencilpow run    --experiment general_square --n 128 --trials 20 ...
    pencilpow bounds --n 16 --p-max 4 --seed 0 --out results/

``run`` writes <out>/<experiment>.csv, <out>/<experiment>.svg and
<out>/manifest.txt. Its flags may also come from a flat ``key = value``
config file (--config); explicit flags override file values. ``bounds``
takes only the five settings the bound report reads, and writes
<out>/bound_report.csv and <out>/manifest.txt (``experiment = general_square``,
the draw it echoes); `emit` formats every CSV cell. A refused setting, config
line or unreadable config file, an ``--out`` that exists and is not a
directory, and a ``run`` that measures no row, exit with code 2 and one
``pencilpow: error: ...`` line before <out>/ is made, and so does any
`PencilPowError` the computation raises (``bounds --p-max 30`` is past the
root formula's cap); a flag value argparse rejects (``--experiment foo``,
``--n 8.5``) exits 2 before it too, with argparse's usage text and
``pencilpow run: error: ...``. Both commands make <out>/ after the
computation; an `OSError` from making or writing into it exits 2 with one
``pencilpow: error:`` line.
"""

import argparse
import os
import sys
from dataclasses import fields

from ..errors import DomainError, PencilPowError
from ..precision import PRECISION_DTYPES
from .emit import emit_bound_csv, emit_csv, emit_svg, write_manifest
from .experiments import (
    CONDITIONINGS,
    EXPERIMENTS,
    ExperimentConfig,
    run_bound_report,
    run_experiment,
)
from .generators import SPECTRUM_REGIONS

# the CLI's own short spellings; every other value is checked by ExperimentConfig
_PRECISION_ALIASES = {"f32": "binary32", "f64": "binary64"}

_CONFIG_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _read_config_file(path):
    """Parse flat ``key = value`` lines into ExperimentConfig kwargs."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except OSError as exc:
        raise DomainError(f"{path}: cannot read config file: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: cannot read config file: {exc}") from None
    out = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_TYPES:
            raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = _CONFIG_TYPES[key](val)
        except ValueError:
            raise DomainError(
                f"{path}:{lineno}: {key} expects {_CONFIG_TYPES[key].__name__}, got {val!r}"
            ) from None
    return out


def _add_shared_flags(parser):
    parser.add_argument("--n", type=int)
    parser.add_argument("--p-max", dest="p_max", type=int)
    parser.add_argument("--precision", choices=sorted([*PRECISION_DTYPES, *_PRECISION_ALIASES]))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", dest="output_dir")


def _refuse(reason):
    """The CLI's one refusal path: one ``pencilpow: error:`` line and exit code 2."""
    print(f"pencilpow: error: {reason}", file=sys.stderr)
    raise SystemExit(2) from None


def _build_config(args):
    """The checked config of ``args``; an ``--out`` that exists and is not a
    directory is refused by `_refuse`."""
    kwargs = {}
    if getattr(args, "config", None):
        kwargs.update(_read_config_file(args.config))
    for key in _CONFIG_TYPES:
        val = getattr(args, key, None)
        if val is not None:
            kwargs[key] = val
    if "precision" in kwargs:
        kwargs["precision"] = _PRECISION_ALIASES.get(kwargs["precision"], kwargs["precision"])
    config = ExperimentConfig(**kwargs)
    if os.path.exists(config.output_dir) and not os.path.isdir(config.output_dir):
        _refuse(f"{config.output_dir}: --out exists and is not a directory")
    return config


def _cmd_run(args):
    config = _build_config(args)
    records = run_experiment(config)
    if not records:  # a squaring trial stops before the first p whose oracle overflows
        _refuse(f"{config.experiment} measured no row: every trial's oracle "
                "V D^(2^p) V^H overflows at p = 1")
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    csv_path = emit_csv(records, os.path.join(out, f"{config.experiment}.csv"), config.experiment)
    svg_path = emit_svg(records, os.path.join(out, f"{config.experiment}.svg"),
                        title=config.experiment)
    write_manifest(os.path.join(out, "manifest.txt"), config)
    print(f"wrote {csv_path}, {svg_path} ({len(records)} rows)")
    return 0


def _cmd_bounds(args):
    config = _build_config(args)
    report = run_bound_report(config)
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    path = emit_bound_csv(report.rows, os.path.join(out, "bound_report.csv"))
    write_manifest(os.path.join(out, "manifest.txt"), report.config,
                   extra={"kernel_calls": report.kernel_calls})
    _print_bound_table(report)
    print(f"wrote {path}")
    return 0


def _print_bound_table(report):
    print(f"{'p':>3} {'measured irs':>14} {'bound irs':>12} {'measured es':>14} {'bound es':>12}")
    for row in report.rows:
        print(
            f"{row.p:>3} {row.err_irs:>14.3e} {row.bound_irs:>12.3e} "
            f"{row.err_es:>14.3e} {row.bound_es:>12.3e}"
        )
    print(f"kernel_calls = {report.kernel_calls}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pencilpow",
        description="implicit-repeated-squaring experiments and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment and emit CSV/SVG")
    _add_shared_flags(run_p)
    run_p.add_argument("--config", help="flat key = value config file")
    run_p.add_argument("--experiment", choices=EXPERIMENTS)
    run_p.add_argument("--trials", type=int)
    run_p.add_argument("--conditioning", choices=CONDITIONINGS)
    run_p.add_argument("--spectrum", choices=SPECTRUM_REGIONS)
    run_p.add_argument("--delta", type=float)
    run_p.set_defaults(func=_cmd_run)

    bounds_p = sub.add_parser("bounds", help="evaluate forward-error bounds")
    _add_shared_flags(bounds_p)
    bounds_p.set_defaults(func=_cmd_bounds, n=16, p_max=4)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PencilPowError as exc:  # a refused setting, or raised by the computation
        _refuse(exc)
    except OSError as exc:  # from making <out>/ or writing into it, after the computation
        _refuse(f"cannot write output: {exc}")


if __name__ == "__main__":
    sys.exit(main())
