"""QPSK modulation, linear ZF/MMSE filtering, and bit-error accounting.

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
from .exceptions import DimensionError

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
    m = linalg._require_square(linalg.as_complex_matrix(h, name="channel"), "channel")
    sigma = linalg.gram(m)
    w = linalg.inverse(sigma) @ m.conj().T
    return FilterMatrix(kind="zf", noise_variance=0.0, matrix=w)


def mmse_filter(h, noise: NoiseModel) -> FilterMatrix:
    """MMSE filter ``(H^H H + variance I)^{-1} H^H``.

    Regularizes the Gram matrix with the noise variance; at zero variance
    it coincides with :func:`zf_filter`.
    """
    m = linalg._require_square(linalg.as_complex_matrix(h, name="channel"), "channel")
    n = m.shape[0]
    gamma = linalg.gram(m) + noise.variance * np.eye(n)
    w = linalg.inverse(gamma) @ m.conj().T
    return FilterMatrix(kind="mmse", noise_variance=noise.variance, matrix=w)


def _filter_pair(h: np.ndarray, variance: float) -> tuple[np.ndarray, np.ndarray]:
    """ZF and MMSE filters of a stack ``(count, n, n)`` of channels.

    Solves the Gram systems directly; the public filters invert instead, and
    the two roundings differ in the last bits.  No validation.
    """
    hh = h.conj().swapaxes(-1, -2)
    gram = hh @ h
    w_zf = np.linalg.solve(gram, hh)
    w_mmse = np.linalg.solve(gram + variance * np.eye(h.shape[-1]), hh)
    return w_zf, w_mmse


def equalize_and_slice(w: FilterMatrix, r) -> np.ndarray:
    """Apply a receive filter and hard-slice the result to bits."""
    rv = linalg.as_complex_vector(r, name="received vector")
    if w.matrix.shape[1] != rv.shape[0]:
        raise DimensionError(
            f"filter expects length {w.matrix.shape[1]}, received vector has "
            f"length {rv.shape[0]}"
        )
    return qpsk_slice(w.matrix @ rv)


def count_bit_errors(sent, received) -> int:
    """Hamming distance between two bit blocks of equal shape."""
    a = as_bit_block(sent, name="sent bits")
    b = as_bit_block(received, name="received bits")
    if a.shape != b.shape:
        raise DimensionError(f"bit blocks differ in shape: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))
