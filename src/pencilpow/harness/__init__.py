"""Experiment harness: random problem generators, desk-scale experiment
runners, CSV/SVG emission, and the command-line interface (`cli`, loaded
on first import)."""

from . import emit, experiments, generators

__all__ = ["cli", "emit", "experiments", "generators"]
