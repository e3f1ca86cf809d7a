"""pencilpow: stable repeated squaring of A^-1 B for matrix pencils.

Implicit repeated squaring (QR-based, inversion-free until the end),
an explicit baseline, the conditioning machinery that predicts when each
is trustworthy, spectral-norm QR perturbation certificates, and a
scaling-and-squaring matrix exponential that can use either squaring
backend.

The package exports its modules; each function is imported from its
module, e.g. ``from pencilpow.squaring import irs, implicit_to_explicit``.
"""

from . import conditioning, expm, harness, kernels, qrperturb, squaring

__version__ = "0.1.0"

__all__ = ["__version__", "conditioning", "expm", "harness", "kernels", "qrperturb", "squaring"]
