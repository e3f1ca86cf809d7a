"""Element-precision plumbing shared by every kernel.

Matrices are plain ``numpy.ndarray`` objects; precision rides on the dtype.
``binary32`` maps to ``complex64`` and ``binary64`` to ``complex128``, with
unit roundoffs ``2**-24`` and ``2**-53``.
"""

import numbers

import numpy as np

from .errors import DomainError, PrecisionMismatchError, ShapeError

#: dtype for each named precision.
PRECISION_DTYPES = {
    "binary32": np.complex64,
    "binary64": np.complex128,
}

#: unit roundoff keyed by complex dtype.
UNIT_ROUNDOFF = {
    np.dtype(np.complex64): 2.0 ** -24,
    np.dtype(np.complex128): 2.0 ** -53,
}

_REAL_TO_COMPLEX = {
    np.dtype(np.float32): np.complex64,
    np.dtype(np.float64): np.complex128,
}


def dtype_for(precision):
    """Return the complex dtype for a precision name."""
    try:
        return PRECISION_DTYPES[precision]
    except KeyError:
        raise DomainError(
            f"unknown precision {precision!r}; expected 'binary32' or 'binary64'"
        ) from None


def unit_roundoff(a):
    """Unit roundoff of a matrix, dtype, scalar type, or precision name.

    Real float32/float64 map as in `as_matrix`; anything else is a `DomainError`.
    """
    if isinstance(a, str):
        a = dtype_for(a)
    # a scalar type's ``dtype`` attribute is a descriptor: the type itself is the dtype
    kind = a if isinstance(a, (type, np.dtype)) else getattr(a, "dtype", type(a))
    try:
        dtype = np.dtype(kind)
        return UNIT_ROUNDOFF[np.dtype(_REAL_TO_COMPLEX.get(dtype, dtype))]
    except (TypeError, KeyError):
        raise DomainError(f"unit_roundoff: no unit roundoff for {kind!r}; expected "
                          "complex64, complex128, float32 or float64") from None


def as_matrix(a, name="matrix"):
    """Validate and return ``a`` as a 2-D finite complex array.

    Real float32/float64 input is widened to the matching complex dtype;
    anything else must already be complex64/complex128. Non-finite entries
    are rejected, honoring the construction invariant of the carrier type,
    and so is input that is ragged or not numeric (`_numeric`).
    """
    a = _numeric(a, name)
    if a.dtype in _REAL_TO_COMPLEX:
        a = a.astype(_REAL_TO_COMPLEX[a.dtype])
    elif a.dtype not in UNIT_ROUNDOFF:
        # integer / object / float16 inputs: promote through float64
        a = _numeric(a, name, np.complex128)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{name} contains non-finite entries")
    return a


def _numeric(a, name, dtype=None):
    """``np.asarray(a, dtype)``, or `DomainError` naming ``name`` when numpy cannot convert ``a``.

    The one wrapper of numpy's conversion failures: a ragged nesting, or an
    entry (a string, an object) that is not a number of ``dtype``.
    """
    try:
        return np.asarray(a, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} is not a numeric array: {exc}") from None


def _finite(z, name, what):
    """``z``, or `DomainError` naming ``name`` when ``what`` has overflowed to non-finite values."""
    if not np.isfinite(z).all():
        raise DomainError(f"{name}: {what} overflowed")
    return z


def same_precision(a, b, op):
    """Raise unless two matrices share a dtype."""
    if a.dtype != b.dtype:
        raise PrecisionMismatchError(
            f"{op}: mixed precisions {a.dtype} and {b.dtype}"
        )


def _count(p, least, name, what="p"):
    """``int(p)``; `ShapeError` unless ``p`` is an integer >= ``least``.

    The one rule for a step count p and a matrix size n (``what``).
    """
    if not isinstance(p, numbers.Integral) or p < least:  # numpy integers pass
        raise ShapeError(f"{name} requires an integer {what} >= {least}, got {p!r}")
    return int(p)


def square_matrix(a, name="matrix"):
    """Validate a square matrix."""
    a = as_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {a.shape}")
    return a
