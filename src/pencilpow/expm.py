"""Scaling-and-squaring matrix exponential with a pluggable squaring backend.

The classic method evaluates a diagonal Pade approximant p(X)/q(X) at
X = M / 2^s and squares the result s times. Both the numerator and the
denominator are polynomials of X, so the final stage is exactly a
(q(X)^-1 p(X))^(2^s) pencil power and can be carried out either explicitly
(invert once, square the product) or implicitly via repeated-squaring steps
that postpone the inversion to the very end.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError
from .precision import square_matrix
from .squaring import explicit_squaring, implicit_to_explicit, irs

__all__ = [
    "ExpmConfig",
    "PADE_THETA",
    "select_scaling",
    "pade_numerator_denominator",
    "expm",
]

#: standard backward-error thresholds for diagonal Pade degrees in binary64.
PADE_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068e0,
    13: 5.371920351148152e0,
}

_BACKENDS = ("explicit", "irs")


@dataclass(frozen=True)
class ExpmConfig:
    """Knobs for `expm`.

    ``scaling_override`` forces the number of squaring steps s, which keeps
    comparisons between backends at matched s honest.
    """

    squaring_backend: str = "explicit"
    pade_degree: int = 13
    scaling_override: int | None = None

    def __post_init__(self):
        if self.squaring_backend not in _BACKENDS:
            raise DomainError(
                f"unknown squaring backend {self.squaring_backend!r}; "
                f"expected one of {_BACKENDS}"
            )
        if self.pade_degree not in PADE_THETA:
            raise DomainError(
                f"pade_degree must be one of {sorted(PADE_THETA)}, got {self.pade_degree}"
            )
        if self.scaling_override is not None and self.scaling_override < 0:
            raise DomainError(f"scaling_override must be >= 0, got {self.scaling_override}")


def select_scaling(m, degree=13):
    """Smallest s >= 0 with ||m / 2^s||_1 under the degree's theta threshold."""
    m = square_matrix(m, "m")
    if degree not in PADE_THETA:
        raise DomainError(f"degree must be one of {sorted(PADE_THETA)}, got {degree}")
    norm1 = float(np.linalg.norm(m, 1))
    theta = PADE_THETA[degree]
    s = 0
    while norm1 / 2.0 ** s > theta:
        s += 1
    return s


def _pade_coefficients(degree):
    c = [1.0]
    for j in range(degree):
        c.append(c[-1] * (degree - j) / ((2 * degree - j) * (j + 1)))
    return c


def pade_numerator_denominator(x, degree=13):
    """Diagonal Pade polynomials (p(x), q(x)) of the exponential.

    Coefficients follow c_0 = 1, c_{j+1} = c_j (m - j) / ((2m - j)(j + 1));
    evaluation splits even and odd powers so that q(x) = even - odd falls
    out of the same two Horner recurrences as p(x) = even + odd.
    """
    x = square_matrix(x, "x")
    if degree < 1:
        raise DomainError(f"degree must be >= 1, got {degree}")
    n = x.shape[0]
    c = _pade_coefficients(degree)
    eye = np.eye(n, dtype=x.dtype)
    x2 = kernels.matmul(x, x)
    even_coeffs = c[0::2][::-1]
    odd_coeffs = c[1::2][::-1]
    even = even_coeffs[0] * eye
    for coeff in even_coeffs[1:]:
        even = kernels.matmul(even, x2) + coeff * eye
    odd = odd_coeffs[0] * eye
    for coeff in odd_coeffs[1:]:
        odd = kernels.matmul(odd, x2) + coeff * eye
    odd = kernels.matmul(x, odd)
    return even + odd, even - odd


def expm(m, config=None):
    """Matrix exponential by scaling and squaring.

    With ``config.squaring_backend == "explicit"`` the final stage forms
    q(X)^-1 p(X) and squares it s times; with ``"irs"`` it runs s implicit
    squaring steps on the pencil (q(X), p(X)) and inverts only at the end.
    Both evaluate (q(X)^-1 p(X))^(2^s); s = 0 short-circuits to the plain
    Pade quotient under either backend.

    Raises `NumericallySingularError` if the Pade denominator (or, on the
    implicit path, the final A_s) is numerically singular.
    """
    config = config or ExpmConfig()
    q, p, s = _final_pencil(m, config)
    if s == 0 or config.squaring_backend == "explicit":
        return explicit_squaring(q, p, s)
    return implicit_to_explicit(irs(q, p, s))


def _final_pencil(m, config):
    """The pencil (q(X), p(X)) at X = m / 2^s, and s: expm(m) is its 2^s-th power.

    The scaling and Pade stage of `expm`, shared with the experiment harness
    so that both squaring backends can be fed one evaluation of it.
    """
    m = square_matrix(m, "m")
    s = config.scaling_override
    if s is None:
        s = select_scaling(m, config.pade_degree)
    x = m * float(2.0 ** -s)
    p, q = pade_numerator_denominator(x, config.pade_degree)
    return q, p, s
