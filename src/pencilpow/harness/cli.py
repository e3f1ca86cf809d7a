"""Command-line interface.

    pencilpow run    --experiment general_square --n 128 --trials 20 ...
    pencilpow bounds --n 16 --p-max 4 --seed 0 --out results/

``run`` writes <out>/<experiment>.csv, <out>/<experiment>.svg and
<out>/manifest.txt. Its flags may also come from a flat ``key = value``
config file (--config); explicit flags override file values. ``bounds``
takes only the five settings the bound report reads, and writes
<out>/bound_report.csv and <out>/manifest.txt.
"""

import argparse
import math
import os
import sys
from dataclasses import fields

from ..errors import PencilPowError
from ..precision import PRECISION_DTYPES
from .emit import emit_csv, emit_svg, write_manifest
from .experiments import (
    CONDITIONINGS,
    EXPERIMENTS,
    ExperimentConfig,
    _runner,
    run_bound_report,
)
from .generators import SPECTRUM_REGIONS

# the CLI's own short spellings; every other value is checked by ExperimentConfig
_PRECISION_ALIASES = {"f32": "binary32", "f64": "binary64"}

_CONFIG_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _read_config_file(path):
    """Parse flat ``key = value`` lines into ExperimentConfig kwargs."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SystemExit(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in _CONFIG_TYPES:
                raise SystemExit(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                out[key] = _CONFIG_TYPES[key](val)
            except ValueError:
                raise SystemExit(
                    f"{path}:{lineno}: {key} expects {_CONFIG_TYPES[key].__name__}, got {val!r}"
                ) from None
    return out


def _add_shared_flags(parser):
    parser.add_argument("--n", type=int)
    parser.add_argument("--p-max", dest="p_max", type=int)
    parser.add_argument("--precision", choices=sorted([*PRECISION_DTYPES, *_PRECISION_ALIASES]))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", dest="output_dir")


def _build_config(args):
    kwargs = {}
    if getattr(args, "config", None):
        kwargs.update(_read_config_file(args.config))
    for key in _CONFIG_TYPES:
        val = getattr(args, key, None)
        if val is not None:
            kwargs[key] = val
    if "precision" in kwargs:
        kwargs["precision"] = _PRECISION_ALIASES.get(kwargs["precision"], kwargs["precision"])
    return ExperimentConfig(**kwargs)


def _checked(build, arg):
    """``build(arg)``; a `PencilPowError` exits with code 2 and one line, as argparse does.

    Commands check their config this way before making the output directory.
    """
    try:
        return build(arg)
    except PencilPowError as exc:
        print(f"pencilpow: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _cmd_run(args):
    config = _checked(_build_config, args)
    runner = _checked(_runner, config)
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    records = runner(config)
    csv_path = os.path.join(out, f"{config.experiment}.csv")
    svg_path = os.path.join(out, f"{config.experiment}.svg")
    emit_csv(records, csv_path, config.experiment)
    emit_svg(records, svg_path, title=config.experiment)
    write_manifest(os.path.join(out, "manifest.txt"), config)
    print(f"wrote {csv_path}, {svg_path} ({len(records)} rows)")
    return 0


def _cmd_bounds(args):
    config = _checked(_build_config, args)
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    report = run_bound_report(config)
    path = os.path.join(out, "bound_report.csv")
    with open(path, "w") as fh:
        fh.write("p,err_irs,bound_irs,ratio_irs,err_es,bound_es,ratio_es\n")
        for row in report.rows:
            cells = (row.err_irs, row.bound_irs, row.ratio_irs,
                     row.err_es, row.bound_es, row.ratio_es)
            fh.write(",".join([str(row.p)] + [
                # a NaN sentinel (a failed step) stays an empty field
                "" if math.isnan(x) else format(x, spec)
                for x, spec in zip(cells, (".17g", ".17g", ".6g") * 2)
            ]) + "\n")
    write_manifest(
        os.path.join(out, "manifest.txt"),
        report.config,
        extra={"kernel_calls": report.kernel_calls},
    )
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
    run_p.add_argument("--experiment", choices=[e for e in EXPERIMENTS if e != "bound_report"])
    run_p.add_argument("--trials", type=int)
    run_p.add_argument("--conditioning", choices=CONDITIONINGS)
    run_p.add_argument("--spectrum", choices=SPECTRUM_REGIONS)
    run_p.add_argument("--delta", type=float)
    run_p.set_defaults(func=_cmd_run)

    bounds_p = sub.add_parser("bounds", help="evaluate forward-error bounds")
    _add_shared_flags(bounds_p)
    bounds_p.set_defaults(func=_cmd_bounds, experiment="bound_report", n=16, p_max=4)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
