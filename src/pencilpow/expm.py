"""Scaling-and-squaring matrix exponential with a pluggable squaring backend.

The classic method evaluates a diagonal Pade approximant p(X)/q(X) at
X = M / 2^s and squares the result s times. Both the numerator and the
denominator are polynomials of X, so the final stage is exactly a
(q(X)^-1 p(X))^(2^s) pencil power and can be carried out either explicitly
(invert once, square the product) or implicitly via repeated-squaring steps
that postpone the inversion to the very end.
"""

import math
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
    """Smallest s >= 0 with ||m / 2^s||_1 under the degree's theta threshold.

    The 1-norm is taken of m scaled by a power of two (`kernels._pow2_scaled`),
    so it cannot overflow, and s is read off the exponents and mantissas of
    that norm and of theta: ||m||_1 / 2^s exceeds theta exactly when its
    exponent is larger, or equal with a larger mantissa.
    """
    m = square_matrix(m, "m")
    if degree not in PADE_THETA:
        raise DomainError(f"degree must be one of {sorted(PADE_THETA)}, got {degree}")
    x, e = kernels._pow2_scaled(m)
    norm1 = float(np.linalg.norm(x, 1))
    if norm1 == 0.0:
        return 0
    norm_mantissa, norm_exponent = math.frexp(norm1)
    theta_mantissa, theta_exponent = math.frexp(PADE_THETA[degree])
    s = norm_exponent + e - theta_exponent + (norm_mantissa > theta_mantissa)
    return max(s, 0)


def _pade_coefficients(degree):
    c = [1.0]
    for j in range(degree):
        c.append(c[-1] * (degree - j) / ((2 * degree - j) * (j + 1)))
    return c


def pade_numerator_denominator(x, degree=13):
    """Diagonal Pade polynomials (p(x), q(x)) of the exponential.

    Coefficients follow b_0 = 1, b_{j+1} = b_j (m - j) / ((2m - j)(j + 1)).
    With V = sum_k b_{2k} X^{2k} and U = X sum_k b_{2k+1} X^{2k}, the even
    and odd parts, p = V + U and q = V - U. Both sums are polynomials in
    X^2, evaluated from the even powers X^2 .. X^{2r} by `_even_sum`
    (Higham, SIMAX 26(4), 2005, Alg. 2.3): r = m // 2 up to degree 9, so
    degrees 3, 5, 7 and 9 take 2, 3, 4 and 5 products, and r = 3 above, so
    degree 13 takes 6 (X^2, X^4, X^6, one Horner step in X^6 for each sum,
    and X times the odd one).

    Raises `DomainError` naming this stage when a power, a partial sum that
    enters a product, p or q is not finite.
    """
    x = square_matrix(x, "x")
    if degree < 1:
        raise DomainError(f"degree must be >= 1, got {degree}")
    b = _pade_coefficients(degree)
    r = degree // 2 if degree <= 9 else 3
    with np.errstate(over="ignore", invalid="ignore"):  # every result is checked
        powers = [np.eye(x.shape[0], dtype=x.dtype)]  # powers[k] = X^(2k)
        for k in range(1, r + 1):
            left, right = (x, x) if k == 1 else (powers[k - 1], powers[1])
            powers.append(_finite(kernels.matmul(left, right), f"X^{2 * k}"))
        odd = _finite(_even_sum(b[1::2], powers), "the odd sum")
        u = kernels.matmul(x, odd)
        v = _even_sum(b[0::2], powers)
        return _finite(v + u, "p"), _finite(v - u, "q")


def _even_sum(c, powers):
    """sum_k c[k] X^{2k}, given powers = [I, X^2, .., X^{2r}].

    The terms up to X^{2r} are one linear combination. Every further block of
    r coefficients is one more product with X^{2r}, by Horner's rule in X^{2r}
    (Paterson and Stockmeyer, SIAM J. Comput. 2, 1973): at degree 13, V =
    X^6 (b_12 X^6 + b_10 X^4 + b_8 X^2) + b_6 X^6 + b_4 X^4 + b_2 X^2 + b_0 I.
    """
    r = len(powers) - 1
    blocks = [(c[: r + 1], powers)]  # r = 0 only at degree 1, where c has one entry
    blocks += [(c[i : i + r], powers[1:]) for i in range(r + 1, len(c), max(r, 1))]
    total = None
    for coeffs, basis in reversed(blocks):
        term = coeffs[0] * basis[0]
        for coeff, power in zip(coeffs[1:], basis[1:]):
            term += coeff * power
        if total is not None:
            term += kernels.matmul(powers[r], _finite(total, "a partial sum"))
        total = term
    return total


def _finite(z, name):
    """``z``, or `DomainError` when the Pade stage has overflowed to a non-finite ``z``."""
    if not np.isfinite(z).all():
        raise DomainError(f"pade_numerator_denominator: {name} overflowed")
    return z


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
