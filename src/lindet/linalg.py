"""Dense complex linear algebra with explicit numerical contracts.

Matrices are plain ``numpy.ndarray`` objects with ``complex128`` entries.
Factorizations delegate to LAPACK through :mod:`numpy.linalg`; what this
module adds is input validation, a fixed singularity threshold, and the
descending-spectrum convention that the rest of the package relies on.
The stacked kernels of :mod:`lindet.channel`, :mod:`lindet.detection` and
:mod:`lindet.analysis` call :mod:`numpy.linalg` directly.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .exceptions import DimensionError

#: A matrix is treated as numerically singular when its smallest singular
#: value is at or below this fraction of its largest one.  The value keeps
#: condition numbers meaningful in double precision.
SINGULARITY_RTOL = 1e-12


def as_complex_matrix(a, name="matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D complex128 array with finite entries.

    Raises
    ------
    DimensionError
        If ``a`` is not two-dimensional or is empty.
    ValueError
        If any entry is NaN or infinite.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.size == 0:
        raise DimensionError(f"{name} must be nonempty")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_spectrum(values, name="spectrum") -> np.ndarray:
    """Validate a descending sequence of nonnegative singular values."""
    s = np.asarray(values, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise DimensionError(f"{name} must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(s)):
        raise ValueError(f"{name} contains non-finite values")
    if np.any(s < 0.0):
        raise ValueError(f"{name} contains negative values")
    if np.any(np.diff(s) > 0.0):
        raise ValueError(f"{name} is not sorted in descending order")
    return s


def _is_real(value) -> bool:
    """Whether ``value`` is a real number and not a bool, the type every numeric rule takes.

    ``np.bool_`` is no ``numbers.Real``; strings, bytes and 0-d arrays are not either.
    """
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _integer(name: str, value, minimum: int) -> int:
    """``value`` as an ``int`` >= ``minimum``, the rule for every count.

    Ints and integral floats pass; bools, strings and other non-integers are
    a ValueError.  Every value goes through ``float``, so one beyond the float
    range is an OverflowError, and ``int(value)`` keeps a large int exact.
    """
    if not (_is_real(value) and float(value).is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def _dimension(name: str, value, minimum: int) -> int:
    """:func:`_integer` of a matrix dimension; a break of its rule is a DimensionError."""
    try:
        return _integer(name, value, minimum)
    except ValueError as exc:
        raise DimensionError(str(exc)) from None


def _real(name: str, value, minimum: float) -> float:
    """``value`` as a float, finite and >= ``minimum``, else a ValueError.

    Bools, strings and other non-reals (:func:`_is_real`) are a ValueError too.
    """
    if not _is_real(value):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    v = float(value)
    if not math.isfinite(v) or v < minimum:
        raise ValueError(f"{name} must be finite and >= {minimum:g}, got {value!r}")
    return v


def _grid(name: str, values) -> tuple[float, ...]:
    """``values`` as a nonempty tuple of floats, none NaN; a string is not a grid.

    Each element is a real number that is not a bool (:func:`_is_real`).
    """
    items = None if isinstance(values, (str, bytes)) else tuple(values)
    if items is None or not all(_is_real(x) for x in items):
        raise ValueError(f"{name} must be a sequence of real numbers, got {values!r}")
    grid = tuple(float(x) for x in items)
    if not grid or any(math.isnan(x) for x in grid):
        raise ValueError(f"{name} must be nonempty, without NaN")
    return grid


def _require_square(a, name="matrix") -> np.ndarray:
    """:func:`as_complex_matrix` of ``a``, which must also be square."""
    m = as_complex_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    return m


def singular_values(a) -> np.ndarray:
    """Descending singular values of ``a`` (values only, no bases)."""
    m = as_complex_matrix(a)
    return np.linalg.svd(m, compute_uv=False)


def gram(a) -> np.ndarray:
    """Gram matrix ``a^H a`` (Hermitian positive semidefinite)."""
    m = as_complex_matrix(a)
    return m.conj().T @ m
