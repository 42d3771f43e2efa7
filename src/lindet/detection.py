"""QPSK modulation and linear ZF/MMSE filtering.

The receiver chain is filter-then-decide: the received vector is multiplied
by a filtering matrix and each output entry is hard-sliced to the nearest
QPSK constellation point.  Bits map Gray-coded and independently per axis,
pair ``(b_I, b_Q)`` to ``((1 - 2 b_I) + 1j (1 - 2 b_Q)) / sqrt(2)``, so
symbols have unit energy.  Slicer ties (an exactly zero real or imaginary
part) decide bit 0 for determinism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .channel import NoiseModel
from .exceptions import DimensionError, SingularMatrixError

_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class FilterMatrix:
    """A linear receive filter plus the criterion that produced it.

    ``kind`` is ``"zf"`` or ``"mmse"``; ``noise_variance`` records the
    variance used to build the filter (0 for ZF).
    """

    kind: str
    noise_variance: float
    matrix: np.ndarray


def as_bit_block(bits, name="bits") -> np.ndarray:
    """Coerce to an integer array of 0/1 values, bits along the last axis.

    Any leading axes are batch axes; a scalar is rejected.
    """
    b = np.asarray(bits)
    if b.ndim < 1:
        raise DimensionError(f"{name} must have at least one axis, got a scalar")
    ib = b.astype(np.int64)
    if b.size and (not np.array_equal(ib, b) or not np.all((ib == 0) | (ib == 1))):
        raise ValueError(f"{name} must contain only 0s and 1s")
    return ib


def qpsk_modulate(bits) -> np.ndarray:
    """Map bits to unit-energy QPSK symbols, two bits per symbol.

    ``bits`` has shape ``(..., 2k)`` and the symbols come back as
    ``(..., k)``: leading batch axes pass through, so a stack of bit blocks
    maps in one call.
    """
    b = as_bit_block(bits)
    if b.shape[-1] % 2 != 0:
        raise DimensionError(f"bit count must be even, got {b.shape[-1]}")
    pairs = b.reshape(*b.shape[:-1], -1, 2)
    return ((1 - 2 * pairs[..., 0]) + 1j * (1 - 2 * pairs[..., 1])) * _SQRT_HALF


def qpsk_slice(y) -> np.ndarray:
    """Hard-decide QPSK bits from filtered symbols: sign of Re then Im.

    ``y`` has shape ``(..., k)`` and the bits come back as ``(..., 2k)``;
    leading batch axes pass through.  Exact inverse of
    :func:`qpsk_modulate` on noiseless constellation points; a zero real or
    imaginary part decides bit 0.
    """
    v = np.asarray(y, dtype=np.complex128)
    if v.ndim < 1:
        raise DimensionError("filter output must have at least one axis, got a scalar")
    if not np.all(np.isfinite(v)):
        raise ValueError("filter output contains non-finite entries")
    bits = np.empty(v.shape + (2,), dtype=np.int64)
    bits[..., 0] = v.real < 0.0
    bits[..., 1] = v.imag < 0.0
    return bits.reshape(*v.shape[:-1], -1)


def zf_filter(h) -> FilterMatrix:
    """Zero-forcing filter ``(H^H H)^{-1} H^H``.

    Inverts the channel exactly (``W H = I``) at the cost of noise
    amplification by the inverse singular values.  Numerically singular
    channels raise :class:`~lindet.exceptions.SingularMatrixError`.
    """
    return FilterMatrix("zf", 0.0, mmse_filter(h, NoiseModel(0.0)).matrix)


def mmse_filter(h, noise: NoiseModel) -> FilterMatrix:
    """MMSE filter ``(H^H H + variance I)^{-1} H^H``.

    Regularizes the Gram matrix with the noise variance; at zero variance
    it coincides with :func:`zf_filter`.
    """
    m, _ = _guarded_channel(h, noise.variance)
    w = _filters(m[None], noise.variance)[0][0]
    return FilterMatrix(kind="mmse", noise_variance=noise.variance, matrix=w)


def _guarded_channel(h, variance: float) -> tuple[np.ndarray, np.ndarray]:
    """Square finite channel and its singular values, if ``H^H H + variance I`` is nonsingular.

    That matrix has the singular values ``s_i^2 + variance``: singular means
    the smallest is at most ``SINGULARITY_RTOL`` times the largest, or is
    not a normal float, or the largest overflows.
    """
    m = linalg._require_square(h, "channel")
    s = np.linalg.svd(m, compute_uv=False)
    s1, sn = float(s[0]), float(s[-1])
    smax, smin = s1 * s1 + variance, sn * sn + variance
    if smin < np.finfo(float).tiny or smin <= linalg.SINGULARITY_RTOL * smax:
        raise SingularMatrixError(
            f"Gram matrix is singular (sigma_min={smin:.3e}, sigma_max={smax:.3e})",
            sigma_min=smin,
            sigma_max=smax,
        )
    return m, s


def _filters(h: np.ndarray, *variances) -> list[np.ndarray]:
    """Filters ``(H^H H + v I)^{-1} H^H`` of a stack, one solve per ``v`` (0 is ZF); unchecked.

    Each ``v`` is a scalar or one variance per matrix of the stack.
    """
    hh = h.conj().swapaxes(-1, -2)
    gram = hh @ h
    eye = np.eye(h.shape[-1])
    return [
        np.linalg.solve(gram + np.asarray(v)[..., None, None] * eye if np.any(v) else gram, hh)
        for v in variances
    ]
