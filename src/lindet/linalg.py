"""Dense complex linear algebra with explicit numerical contracts.

Matrices are plain ``numpy.ndarray`` objects with ``complex128`` entries.
Factorizations delegate to LAPACK through :mod:`numpy.linalg`; what this
module adds is input validation, a fixed singularity threshold, and the
descending-spectrum convention that the rest of the package relies on.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .exceptions import DimensionError, SingularMatrixError

#: A matrix is treated as numerically singular when its smallest singular
#: value is at or below this fraction of its largest one.  The value keeps
#: condition numbers meaningful in double precision.
SINGULARITY_RTOL = 1e-12


class SvdResult(NamedTuple):
    """Singular value decomposition ``a = u @ diag(spectrum) @ vh``.

    ``u`` and ``vh`` are unitary and ``spectrum`` is nonnegative and sorted
    in descending order.
    """

    u: np.ndarray
    spectrum: np.ndarray
    vh: np.ndarray


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


def as_complex_vector(v, name="vector") -> np.ndarray:
    """Coerce ``v`` to a 1-D complex128 array with finite entries."""
    x = np.asarray(v, dtype=np.complex128)
    if x.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got ndim={x.ndim}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    return x


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


def _require_square(m: np.ndarray, name="matrix") -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    return m


def svd(a) -> SvdResult:
    """Full SVD of a square matrix with descending spectrum.

    Parameters
    ----------
    a : array_like
        Square matrix with finite entries.

    Returns
    -------
    SvdResult
        Unitary bases and the descending singular-value spectrum, with
        ``u @ diag(spectrum) @ vh`` reconstructing the input.
    """
    m = _require_square(as_complex_matrix(a))
    u, s, vh = np.linalg.svd(m)
    return SvdResult(u=u, spectrum=s, vh=vh)


def singular_values(a) -> np.ndarray:
    """Descending singular values of ``a`` (values only, no bases)."""
    m = as_complex_matrix(a)
    return np.linalg.svd(m, compute_uv=False)


def gram(a) -> np.ndarray:
    """Gram matrix ``a^H a`` (Hermitian positive semidefinite)."""
    m = as_complex_matrix(a)
    return m.conj().T @ m


def _nonsingular(a, message: str) -> tuple[np.ndarray, float, float]:
    """Square ``a`` with its extreme singular values, guarded by ``SINGULARITY_RTOL``.

    A numerically singular matrix raises
    :class:`~lindet.exceptions.SingularMatrixError` with ``message``.
    """
    m = _require_square(as_complex_matrix(a))
    s = np.linalg.svd(m, compute_uv=False)
    smax, smin = float(s[0]), float(s[-1])
    if smin <= SINGULARITY_RTOL * smax:
        raise SingularMatrixError(
            f"{message} (sigma_min={smin:.3e}, sigma_max={smax:.3e})",
            sigma_min=smin,
            sigma_max=smax,
        )
    return m, smax, smin


def inverse(a) -> np.ndarray:
    """Matrix inverse, guarded by the package singularity threshold.

    Raises
    ------
    SingularMatrixError
        When ``sigma_min <= SINGULARITY_RTOL * sigma_max``; the error
        carries both extreme singular values.
    """
    m, _, _ = _nonsingular(a, "matrix is numerically singular")
    return np.linalg.inv(m)


def condition_number(a) -> float:
    """Ratio of largest to smallest singular value of a square matrix.

    Equals 1 exactly for (scaled) unitary matrices and is invariant under
    inversion.  Numerically singular input raises
    :class:`~lindet.exceptions.SingularMatrixError`.
    """
    _, smax, smin = _nonsingular(a, "condition number undefined for numerically singular matrix")
    return smax / smin
