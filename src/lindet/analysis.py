"""Closed-form conditioning and post-processing SNR analysis.

This module collects the analytical machinery for comparing linear ZF and
MMSE detection on a known channel spectrum:

* Weyl-type lower bounds on the singular values of a sum of Hermitian PSD
  matrices, and the resulting approximation of the MMSE/ZF filtering-matrix
  condition-number ratio ``(1 + v/s_1^2) / (1 + v/s_N^2)`` where ``v`` is
  the noise variance and ``s_1 >= s_N`` the extreme channel singular
  values.
* Exact filter condition numbers from the channel's spectrum:
  ``cond(W_zf) = s_1 / s_N`` and ``cond(W_mmse) = max f / min f`` with
  ``f(s) = s / (s^2 + v)``, which makes the approximation exact for
  ``s_N >= sqrt(v)``.
* Post-processing SNR of the ZF filter, ``N / sum_i(v / s_i^2)``, and of
  the MMSE filter, ``(a + b) / (v (N + 1) c + N b - a)`` with the spectral
  sums ``a``, ``b``, ``c`` defined in :func:`mmse_abc`; ``N b - a`` is
  evaluated as a sum of squares rather than as written, which would cancel
  catastrophically at small noise.

Infinite SNR is a first-class value (``math.inf``), not an exception: the
zero-noise limits are analytically meaningful and both detectors diverge
together there.

This module draws no random numbers.  The Monte Carlo distortion oracle
that checks the SNR formulas, :func:`lindet.experiments.empirical_distortion_snr`,
runs on the experiment runners' block driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .channel import NoiseModel
from .detection import _filters, _guarded_channel
from .exceptions import DimensionError, SingularMatrixError


@dataclass(frozen=True)
class MmseAbc:
    """Spectral sums entering the MMSE post-processing SNR.

    With ``t_i = s_i^2 / (s_i^2 + v)``:  ``a = (sum t_i)^2``,
    ``b = sum t_i^2``, ``c = sum s_i^2 / (s_i^2 + v)^2``.  Cauchy-Schwarz
    gives ``a >= b`` whenever the values are finite.
    """

    a: float
    b: float
    c: float


@dataclass(frozen=True)
class CondRatioReport:
    """Exact and approximate MMSE/ZF filtering-matrix conditioning ratio."""

    exact_ratio: float
    approx_ratio: float
    cond_w_zf: float
    cond_w_mmse: float


def weyl_lower_bound(i: int, sigma_spectrum, delta_spectrum) -> float:
    """Sharpest Weyl lower bound on the i-th singular value of a PSD sum.

    For Hermitian PSD matrices with descending spectra ``sigma_spectrum``
    and ``delta_spectrum``, the i-th (1-indexed) singular value of their sum
    is at least ``sigma[i+k] + delta[N-k]`` for every ``k`` in
    ``0..N-i``; this returns the maximum of that family.  ``i`` follows the
    count rule of :func:`lindet.linalg._integer`; outside ``1..N`` it is an
    IndexError.
    """
    sig = linalg.as_spectrum(sigma_spectrum, name="sigma_spectrum")
    dlt = linalg.as_spectrum(delta_spectrum, name="delta_spectrum")
    n = sig.size
    if dlt.size != n:
        raise DimensionError(
            f"spectra must have equal length, got {n} and {dlt.size}"
        )
    i = linalg._integer("index", i, -math.inf)
    if not 1 <= i <= n:
        raise IndexError(f"index must be in 1..{n}, got {i}")
    return float(_weyl_bounds(sig, dlt)[i - 1])


def _weyl_bounds(sig: np.ndarray, dlt: np.ndarray) -> np.ndarray:
    """All ``n`` bounds of :func:`weyl_lower_bound` along the last axis; unchecked.

    ``sig`` and ``dlt`` are descending spectra ``(..., n)``.  Bound ``p``
    (0-indexed) is the maximum of ``sig[j] + dlt[n-1+p-j]`` over ``j >= p``.
    """
    n = sig.shape[-1]
    p, j = np.ogrid[:n, :n]
    pairs = sig[..., None, :] + dlt[..., np.clip(n - 1 + p - j, 0, n - 1)]
    return np.max(np.where(j >= p, pairs, -np.inf), axis=-1)


def cond_ratio_approx(sigma_1: float, sigma_n: float, noise: NoiseModel) -> float:
    """Approximate cond(W_mmse)/cond(W_zf) from the extreme channel singular values.

    Returns ``(1 + v/sigma_1^2) / (1 + v/sigma_n^2)``, which is always in
    ``(0, 1]`` and equals 1 exactly when the noise vanishes or the channel
    is orthogonal (``sigma_1 == sigma_n``), and is exact if ``sigma_n >= sqrt(v)``.
    """
    s1 = float(sigma_1)
    sn = float(sigma_n)
    if sn <= 0.0:
        raise SingularMatrixError(
            "smallest singular value must be positive", sigma_min=sn, sigma_max=s1
        )
    if not (math.isfinite(s1) and math.isfinite(sn)) or s1 < sn:
        raise ValueError(f"need finite sigma_1 >= sigma_n > 0, got ({sigma_1!r}, {sigma_n!r})")
    return _cond_ratio_approx(s1, sn, noise.variance)


def _cond_ratio_approx(s1, sn, v):
    """``(1 + v/s1^2) / (1 + v/sn^2)`` elementwise, on floats or arrays; unchecked."""
    return (1.0 + v / (s1 * s1)) / (1.0 + v / (sn * sn))


def cond_ratio_exact(h, noise: NoiseModel) -> CondRatioReport:
    """Exact cond(W_mmse)/cond(W_zf) for a channel, with the approximation alongside.

    Evaluates both filters' condition numbers in closed form on the
    channel's singular values, from one SVD, and fills in
    :func:`cond_ratio_approx` at the extreme ones.
    """
    _, s = _guarded_channel(h, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond_zf, cond_mmse = _spectral_conds(s, 0.0, noise.variance).tolist()
    if not cond_mmse * linalg.SINGULARITY_RTOL < 1.0:  # the Gram guard bounds cond_zf
        raise SingularMatrixError("condition number undefined for a singular MMSE filter")
    return CondRatioReport(
        exact_ratio=cond_mmse / cond_zf,
        approx_ratio=cond_ratio_approx(float(s[0]), float(s[-1]), noise),
        cond_w_zf=cond_zf,
        cond_w_mmse=cond_mmse,
    )


def _spectral_conds(s: np.ndarray, *variances) -> np.ndarray:
    """cond((H^H H + v I)^{-1} H^H) from H's spectra ``s (..., N)``, one row per ``v`` (0 is ZF).

    That filter has the singular values ``f(s_i) = s_i / (s_i^2 + v)``, so
    each row is ``max f / min f``.  Each ``v`` is a scalar or one per
    spectrum; unchecked.
    """
    f = np.stack([s / (s * s + np.asarray(v)[..., None]) for v in variances])
    return np.max(f, axis=-1) / np.min(f, axis=-1)


def _filter_conds(h: np.ndarray, variance) -> np.ndarray:
    """Rows ``(cond(W_zf), cond(W_mmse))`` for a stack ``(count, n, n)``, by one batched SVD."""
    sv = np.linalg.svd(np.stack(_filters(h, 0.0, variance)), compute_uv=False)
    return sv[..., 0] / sv[..., -1]


def _zf_snr(s: np.ndarray, variance):
    """ZF SNR ``N / sum_i(v / s_i^2)`` along the last axis, without validation.

    ``s`` is one spectrum ``(N,)`` or a stack ``(..., N)`` of them; the
    result has the leading shape.  ``variance`` is a scalar or one variance
    per spectrum.  Zero singular values or zero noise give IEEE infinities
    or NaNs.
    """
    return s.shape[-1] / np.sum(np.asarray(variance)[..., None] / (s * s), axis=-1)


def _spectral_sums(s: np.ndarray, variance):
    """Sums ``a``, ``b``, ``c`` of :class:`MmseAbc` along the last axis.

    ``s`` is one spectrum ``(N,)`` or a stack ``(..., N)``; each sum has
    the leading shape, and ``variance`` is a scalar or of that shape.  No
    validation.
    """
    s2 = s * s
    v = np.asarray(variance)[..., None]
    t = s2 / (s2 + v)
    # On a stack ``** 2`` squares by multiplication; on one spectrum the sum
    # is a NumPy scalar and ``** 2`` goes through pow(), which may round the
    # last bit differently.  Both roundings are part of the pinned outputs.
    a = np.sum(t, axis=-1) ** 2
    b = np.sum(t * t, axis=-1)
    c = np.sum(s2 / (s2 + v) ** 2, axis=-1)
    return a, b, c


def _mmse_snr_terms(s: np.ndarray, variance):
    """Numerator ``a + b`` and denominator ``v (N + 1) c + N b - a`` of the MMSE SNR.

    Evaluated along the last axis of one spectrum ``(N,)`` or a stack
    ``(..., N)``, with a scalar ``variance`` or one per spectrum, without
    validation.  ``N b - a`` equals
    ``N sum_i (u_i - mean(u))^2`` with ``u_i = v / (s_i^2 + v) = 1 - t_i``;
    that form is a sum of squares of small, accurately computed terms, while
    ``N b - a`` subtracts two nearly equal numbers as ``v`` vanishes.
    """
    n = s.shape[-1]
    a, b, c = _spectral_sums(s, variance)
    v = np.asarray(variance)
    u = v[..., None] / (s * s + v[..., None])
    spread = np.sum((u - np.mean(u, axis=-1, keepdims=True)) ** 2, axis=-1)
    return a + b, v * (n + 1) * c + n * spread


def _mmse_spectrum(spectrum, noise: NoiseModel) -> np.ndarray:
    """Validated spectrum on which every ``s_i^2 + v`` is nonzero."""
    s = linalg.as_spectrum(spectrum)
    if s[-1] * s[-1] + noise.variance == 0.0:
        raise SingularMatrixError(
            "zero singular value with zero noise variance",
            sigma_min=float(s[-1]),
            sigma_max=float(s[0]),
        )
    return s


def snr_zf(spectrum, noise: NoiseModel) -> float:
    """Post-processing SNR of the ZF filter: ``N / sum_i(v / s_i^2)``.

    Returns ``math.inf`` for zero noise.  A zero singular value raises
    :class:`~lindet.exceptions.SingularMatrixError` since ZF inverts the
    channel.
    """
    s = linalg.as_spectrum(spectrum)
    if s[-1] <= 0.0:
        raise SingularMatrixError(
            "ZF SNR undefined for a singular channel",
            sigma_min=float(s[-1]),
            sigma_max=float(s[0]),
        )
    if noise.variance == 0.0:
        return math.inf
    return float(_zf_snr(s, noise.variance))


def mmse_abc(spectrum, noise: NoiseModel) -> MmseAbc:
    """Spectral sums ``a``, ``b``, ``c`` for the MMSE post-processing SNR."""
    a, b, c = _spectral_sums(_mmse_spectrum(spectrum, noise), noise.variance)
    return MmseAbc(a=float(a), b=float(b), c=float(c))


def snr_mmse(spectrum, noise: NoiseModel) -> float:
    """Post-processing SNR of the MMSE filter.

    Evaluates ``(a + b) / (v (N + 1) c + N b - a)``, with ``N b - a``
    computed as the spread ``N sum_i (u_i - mean(u))^2`` of
    ``u_i = v / (s_i^2 + v)``, which does not cancel.  The denominator is a
    sum of nonnegative terms; it is zero only for zero noise, where the
    MMSE and ZF SNRs both diverge, and that returns ``math.inf``.
    """
    s = _mmse_spectrum(spectrum, noise)
    numerator, denominator = _mmse_snr_terms(s, noise.variance)
    if denominator == 0.0:
        return math.inf
    return float(numerator / denominator)


def gain_db(snr_mmse_lin: float, snr_zf_lin: float) -> float:
    """MMSE-over-ZF gain in dB: ``10 log10(snr_mmse / snr_zf)``.

    Infinite markers propagate: if both inputs are infinite the gain is the
    zero-noise limit 0 dB; a single infinite input yields ``+/-inf``.
    """
    m = float(snr_mmse_lin)
    z = float(snr_zf_lin)
    if not (math.isinf(m) or math.isinf(z) or (m > 0.0 and z > 0.0)):
        raise ValueError(f"SNRs must be positive, got ({snr_mmse_lin!r}, {snr_zf_lin!r})")
    return float(_gain_db(m, z))


def _gain_db(mmse, zf):
    """``10 log10(mmse / zf)`` elementwise, with the limits of :func:`gain_db`; unchecked.

    Both SNRs infinite give 0 dB, only ``mmse`` infinite ``+inf`` and only
    ``zf`` infinite ``-inf``.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gain = 10.0 * np.log10(np.divide(mmse, zf))
    m_inf, z_inf = np.isinf(mmse), np.isinf(zf)
    return np.where(m_inf, np.where(z_inf, 0.0, np.inf), np.where(z_inf, -np.inf, gain))


def edelman_tail(x: float) -> float:
    """Asymptotic minimum-singular-value tail law ``exp(-x - x^2/2)``."""
    xv = linalg._real("x", x, 0.0)
    return math.exp(-xv - 0.5 * xv * xv)
