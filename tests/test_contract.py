"""The library's contract over its public surface, swept as one table.

Every public entry point, given finite input, returns a finite result or a
documented ``inf``, or raises a `PencilPowError`; no numpy warning escapes.
"""

import dataclasses
import itertools
import math
import warnings

import numpy as np

from pencilpow import conditioning, expm, kernels, qrperturb, squaring
from pencilpow.errors import PencilPowError, RankDeficientStackWarning

from conftest import ginibre, rng_for

P = 2  # step count of the calls that take one

#: the inputs, each a function of (n, complex dtype); "real" is real input of
#: the matching real dtype, which the library widens
KINDS = {
    "zero": lambda n, dt: np.zeros((n, n), dtype=dt),
    "identity": lambda n, dt: np.eye(n, dtype=dt),
    "ginibre": lambda n, dt: ginibre(n, rng_for(130 + n)).astype(dt),
    "rank_one": lambda n, dt: np.outer(np.arange(1, n + 1), 1j - np.arange(n)).astype(dt),
    "max/2": lambda n, dt: np.full((n, n), np.finfo(dt).max / 2, dtype=dt),
    "4*tiny": lambda n, dt: np.full((n, n), 4 * np.finfo(dt).tiny, dtype=dt),
    "real": lambda n, dt: rng_for(140 + n).standard_normal((n, n)).astype(np.finfo(dt).dtype),
    "unit_circle": lambda n, dt: np.diag(np.exp(2j * np.pi * (np.arange(n) + 0.3) / n))
                                 .astype(dt),
}

#: (name, call on (A, B), whether the call reads B); a call that reads A
#: only runs once per A
CALLS = [
    ("kernels.matmul", lambda a, b: kernels.matmul(a, b), True),
    ("kernels.full_qr", lambda a, b: _read_qr(kernels.full_qr(np.vstack([b, -a]))), True),
    ("kernels.invert", lambda a, b: kernels.invert(a), False),
    ("kernels.svd", lambda a, b: kernels.svd(a), False),
    ("kernels.spectral_norm", lambda a, b: kernels.spectral_norm(a), False),
    ("kernels.smallest_singular", lambda a, b: kernels.smallest_singular(a), False),
    ("squaring.irs_step", lambda a, b: squaring.irs_step(a, b), True),
    ("squaring.irs", lambda a, b: squaring.irs(a, b, P), True),
    ("squaring.explicit_squaring", lambda a, b: squaring.explicit_squaring(a, b, P), True),
    ("squaring.implicit_to_explicit",
     lambda a, b: squaring.implicit_to_explicit(squaring.irs(a, b, P)), True),
    ("squaring.spectral_projector",
     lambda a, b: squaring.spectral_projector(squaring.irs(a, b, P)), True),
    ("expm.expm[explicit]", lambda a, b: expm.expm(a, expm.ExpmConfig("explicit")), False),
    ("expm.expm[irs]", lambda a, b: expm.expm(a, expm.ExpmConfig("irs")), False),
    ("conditioning.sigma_min_mp", lambda a, b: conditioning.sigma_min_mp(a, b, P), True),
    ("conditioning.kappa_irs", lambda a, b: conditioning.kappa_irs(a, b, P), True),
    ("conditioning.distance_ill_posed", lambda a, b: conditioning.distance_ill_posed(a, b), True),
    ("conditioning.omega_malyshev", lambda a, b: conditioning.omega_malyshev(a, b), True),
    ("conditioning.condition_chain_check",
     lambda a, b: conditioning.condition_chain_check(a, b, P), True),
    ("qrperturb.qr_perturb_certificate",
     lambda a, b: qrperturb.qr_perturb_certificate(a, b), True),
]

#: the results that may be inf: kappa_IRS and omega (also as report fields),
#: the certificate's bound once its hypothesis fails, and its argument x when
#: ||a^+||_2 ||e||_2 overflows
MAY_BE_INF = {"conditioning.kappa_irs", "conditioning.omega_malyshev", "kappa_irs", "omega_ab",
              "bound_value", "alpha_arg"}


def _read_qr(qr):
    return qr.R, qr.Q, qr.complement


def _non_finite(value, label):
    """The labels of the parts of ``value`` that are neither finite nor a documented inf."""
    if dataclasses.is_dataclass(value):
        return [bad for field in dataclasses.fields(value)
                for bad in _non_finite(getattr(value, field.name), field.name)]
    if isinstance(value, tuple):
        return [bad for part in value for bad in _non_finite(part, label)]
    if isinstance(value, np.ndarray):
        return [] if np.isfinite(value).all() else [label]
    if isinstance(value, float) and not math.isfinite(value):
        return [] if math.isinf(value) and label in MAY_BE_INF else [label]
    return []


def _exempt(name, dtype, kind_a, kind_b):
    """The one documented gap: a complex128 stack past the float range can give
    `full_qr` a non-finite R or complement, which `irs_step` refuses later."""
    return (name == "kernels.full_qr" and dtype == np.complex128
            and "max/2" in (kind_a, kind_b))


def test_every_entry_point_returns_finite_or_refuses():
    failures, done = [], set()
    for dtype, n, (kind_a, make_a), (kind_b, make_b) in itertools.product(
            (np.complex64, np.complex128), (1, 4), KINDS.items(), KINDS.items()):
        a, b = make_a(n, dtype), make_b(n, dtype)
        for name, call, reads_b in CALLS:
            key = (name, np.dtype(dtype).name, n, kind_a, kind_b if reads_b else None)
            if key in done:
                continue
            done.add(key)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                warnings.simplefilter("ignore", RankDeficientStackWarning)
                try:
                    bad = _non_finite(call(a, b), name)
                except PencilPowError:
                    continue
                except Exception as exc:  # a raw numpy error or warning
                    failures.append(f"{key}: {type(exc).__name__}: {exc}")
                    continue
            if bad and not _exempt(name, dtype, kind_a, kind_b):
                failures.append(f"{key}: non-finite {sorted(set(bad))}")
    assert not failures, f"{len(failures)} contract failures:\n" + "\n".join(failures[:40])
