"""Scaling-and-squaring matrix exponential with a pluggable squaring backend.

The classic method evaluates the degree-13 diagonal Pade approximant
p(X)/q(X) at X = M / 2^s and squares the result s times. Both the numerator
and the denominator are polynomials of X, so the final stage is exactly a
(q(X)^-1 p(X))^(2^s) pencil power and can be carried out either explicitly
(invert once, square the product) or implicitly via repeated-squaring steps
that postpone the inversion to the very end.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError
from .precision import _finite, square_matrix
from .squaring import explicit_squaring, implicit_to_explicit, irs

__all__ = [
    "ExpmConfig",
    "select_scaling",
    "pade_numerator_denominator",
    "expm",
]

#: the binary64 backward-error threshold of the degree-13 diagonal Pade approximant
_THETA_13 = 5.371920351148152e0

_BACKENDS = ("explicit", "irs")

#: the stage that `kernels.matmul` or `_finite` names when a Pade product, p or q overflows
_PADE = "pade_numerator_denominator"


@dataclass(frozen=True)
class ExpmConfig:
    """The squaring backend of `expm`'s final stage."""

    squaring_backend: str = "explicit"

    def __post_init__(self):
        if self.squaring_backend not in _BACKENDS:
            raise DomainError(
                f"unknown squaring backend {self.squaring_backend!r}; "
                f"expected one of {_BACKENDS}"
            )


def select_scaling(m):
    """Smallest s >= 0 with ||m / 2^s||_1 under the degree-13 theta threshold.

    The 1-norm is taken of m scaled by a power of two (`kernels._pow2_scaled`),
    so it cannot overflow, and s is read off the exponents and mantissas of
    that norm and of theta: ||m||_1 / 2^s exceeds theta exactly when its
    exponent is larger, or equal with a larger mantissa.
    """
    m = square_matrix(m, "m")
    x, e = kernels._pow2_scaled(m)
    norm1 = float(np.linalg.norm(x, 1))
    if norm1 == 0.0:
        return 0
    norm_mantissa, norm_exponent = math.frexp(norm1)
    theta_mantissa, theta_exponent = math.frexp(_THETA_13)
    s = norm_exponent + e - theta_exponent + (norm_mantissa > theta_mantissa)
    return max(s, 0)


def _pade_coefficients():
    """b_0 .. b_13 of the degree-13 approximant.

    b_0 = 1 and b_{j+1} = b_j (13 - j) / ((26 - j)(j + 1)).
    """
    c = [1.0]
    for j in range(13):
        c.append(c[-1] * (13 - j) / ((26 - j) * (j + 1)))
    return c


def pade_numerator_denominator(x):
    """Degree-13 diagonal Pade polynomials (p(x), q(x)) of the exponential.

    With V = sum_k b_{2k} X^{2k} and U = X sum_k b_{2k+1} X^{2k}, the even
    and odd parts, p = V + U and q = V - U. Both sums are evaluated from
    X^2, X^4 and X^6 by `_even_sum` (Higham, SIMAX 26(4), 2005, Alg. 2.3):
    six products, X^2, X^4, X^6, one with X^6 for each sum, and X times the
    odd one.

    Raises `DomainError` naming this stage when a product, p or q
    overflows; a sum that overflows is refused by the product it enters.
    """
    x = square_matrix(x, "x")
    b = _pade_coefficients()
    x2 = kernels.matmul(x, x, _PADE, "X^2")
    x4 = kernels.matmul(x2, x2, _PADE, "X^4")
    x6 = kernels.matmul(x4, x2, _PADE, "X^6")
    powers = (np.eye(x.shape[0], dtype=x.dtype), x2, x4, x6)
    with np.errstate(over="ignore", invalid="ignore"):  # every result is checked
        u = kernels.matmul(x, _even_sum(b[1::2], powers), _PADE, "U")
        v = _even_sum(b[0::2], powers)
        return _finite(v + u, _PADE, "p"), _finite(v - u, _PADE, "q")


def _even_sum(c, powers):
    """sum_k c[k] X^{2k} for k = 0 .. 6, given powers = (I, X^2, X^4, X^6).

    One product, by Horner's rule in X^6 (Paterson and Stockmeyer, SIAM J.
    Comput. 2, 1973): c_0 I + c_1 X^2 + c_2 X^4 + c_3 X^6 +
    X^6 (c_4 X^2 + c_5 X^4 + c_6 X^6).
    """
    eye, x2, x4, x6 = powers
    high = kernels.matmul(x6, c[4] * x2 + c[5] * x4 + c[6] * x6, _PADE, "a Horner product")
    return c[0] * eye + c[1] * x2 + c[2] * x4 + c[3] * x6 + high


def expm(m, config=None):
    """Matrix exponential by scaling and squaring.

    With ``config.squaring_backend == "explicit"`` (the default) the final
    stage forms q(X)^-1 p(X) and squares it s times; with ``"irs"`` it runs
    s implicit squaring steps on the pencil (q(X), p(X)) and inverts only at
    the end. Both evaluate (q(X)^-1 p(X))^(2^s); at s = 0 each is the plain
    Pade quotient q(X)^-1 p(X).

    Raises `DomainError` when ``config`` is neither None nor an
    `ExpmConfig`, and `NumericallySingularError` if the Pade denominator
    (or, on the implicit path, the final A_s) is numerically singular.
    """
    config = ExpmConfig() if config is None else config
    if not isinstance(config, ExpmConfig):
        raise DomainError(f"expm requires an ExpmConfig, got {config!r}")
    q, p, s = _final_pencil(m)
    if config.squaring_backend == "explicit":
        return explicit_squaring(q, p, s)
    return implicit_to_explicit(irs(q, p, s))


def _final_pencil(m):
    """The pencil (q(X), p(X)) at X = m / 2^s, and s: expm(m) is its 2^s-th power.

    The scaling and Pade stage of `expm`, shared with the experiment harness
    so that both squaring backends can be fed one evaluation of it.
    """
    m = square_matrix(m, "m")
    s = select_scaling(m)
    x = m * float(2.0 ** -s)
    p, q = pade_numerator_denominator(x)
    return q, p, s
