"""pencilpow: stable repeated squaring of A^-1 B for matrix pencils.

Implicit repeated squaring (QR-based, inversion-free until the end),
an explicit baseline, the conditioning machinery that predicts when each
is trustworthy, spectral-norm QR perturbation certificates, and a
scaling-and-squaring matrix exponential that can use either squaring
backend.
"""

from . import conditioning, expm, harness, kernels, qrperturb, squaring
from .conditioning import (
    build_mp_dense,
    condition_chain_check,
    distance_ill_posed,
    kappa_irs,
    omega_malyshev,
    sigma_min_mp,
)
from .expm import ExpmConfig, expm as matrix_exponential, pade_numerator_denominator, select_scaling
from .kernels import (
    KernelCounts,
    count_kernels,
    full_qr,
    invert,
    matmul,
    smallest_singular,
    spectral_norm,
    svd,
)
from .qrperturb import (
    align_complement,
    lebesgue_constant,
    qr_perturb_certificate,
    sun_alpha,
    triangular_norm_check,
)
from .squaring import (
    IRSRun,
    IRSStepTrace,
    Pencil,
    explicit_squaring,
    implicit_to_explicit,
    irs,
    irs_step,
    spectral_projector,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "kernels",
    "squaring",
    "conditioning",
    "qrperturb",
    "expm",
    "harness",
    "KernelCounts",
    "count_kernels",
    "matmul",
    "full_qr",
    "svd",
    "spectral_norm",
    "smallest_singular",
    "invert",
    "Pencil",
    "IRSRun",
    "IRSStepTrace",
    "irs",
    "irs_step",
    "explicit_squaring",
    "implicit_to_explicit",
    "spectral_projector",
    "build_mp_dense",
    "sigma_min_mp",
    "kappa_irs",
    "distance_ill_posed",
    "omega_malyshev",
    "condition_chain_check",
    "sun_alpha",
    "lebesgue_constant",
    "triangular_norm_check",
    "align_complement",
    "qr_perturb_certificate",
    "ExpmConfig",
    "select_scaling",
    "pade_numerator_denominator",
    "matrix_exponential",
]
