"""Random channel ensembles and the ``r = Hx + n`` transmission model.

Entries of the basic ensemble are zero-mean unit-variance circularly
symmetric complex Gaussians (real and imaginary parts each with variance
1/2).  Derived ensembles rescale each realization so the squared Frobenius
norm equals ``N**2``, optionally reject draws whose smallest singular value
falls below a floor, or synthesize a channel with a prescribed spectrum
from independent Haar-random unitary factors.

All sampling routines are pure functions of an :class:`RngStream` value, so
identical streams reproduce identical draws regardless of process or worker
layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import (
    DegenerateInputError,
    DimensionError,
    SamplingExhaustedError,
)

#: Default rejection budget for floored sampling.
DEFAULT_MAX_ATTEMPTS = 10**6

@dataclass(frozen=True)
class NoiseModel:
    """Additive white Gaussian noise with per-entry variance ``variance``.

    The noise vector satisfies ``E[n n^H] = variance * I``.
    """

    variance: float

    def __post_init__(self):
        v = float(self.variance)
        if not math.isfinite(v) or v < 0.0:
            raise ValueError(f"noise variance must be finite and >= 0, got {self.variance!r}")
        object.__setattr__(self, "variance", v)


@dataclass(frozen=True)
class RngStream:
    """Addressable, reproducible random stream.

    A stream is identified by a 64-bit master seed plus a tuple of
    nonnegative child indices.  Two streams with the same address always
    produce bit-identical draws; streams with different addresses are
    statistically independent.  Derive substreams with :meth:`child`, e.g.
    one per (experiment, grid point, trial block).
    """

    master_seed: int
    key: tuple[int, ...] = ()

    def __post_init__(self):
        seed = int(self.master_seed)
        if seed < 0:
            raise ValueError("master_seed must be nonnegative")
        object.__setattr__(self, "master_seed", seed)
        key = tuple(int(k) for k in self.key)
        if any(k < 0 for k in key):
            raise ValueError("stream indices must be nonnegative")
        object.__setattr__(self, "key", key)

    def child(self, *indices: int) -> "RngStream":
        """Substream addressed by appending ``indices`` to this stream's key."""
        return RngStream(self.master_seed, self.key + tuple(indices))

    def generator(self) -> np.random.Generator:
        """Fresh NumPy generator seeded from this stream's address."""
        ss = np.random.SeedSequence(self.master_seed, spawn_key=self.key)
        return np.random.default_rng(ss)


@dataclass(frozen=True)
class ChannelRealization:
    """A sampled channel together with its cached singular spectrum.

    ``provenance`` records how the matrix was produced: ``"raw"``,
    ``"normalized"`` (squared Frobenius norm equals N^2), ``"floored"``
    (normalized, with smallest singular value at least ``sigma_min``), or
    ``"synthesized"`` (prescribed spectrum; not Frobenius-normalized).
    """

    matrix: np.ndarray
    spectrum: np.ndarray
    provenance: str
    sigma_min: float | None = None
    cond: float | None = None

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def complex_gaussian(shape, generator: np.random.Generator) -> np.ndarray:
    """i.i.d. CN(0, 1) array: real/imaginary parts each have variance 1/2.

    ``shape`` may carry leading batch axes: ``(count, n, n)`` draws a stack
    of ``count`` channels from one generator, all real parts first, so a
    stack of one equals the single ``(n, n)`` draw bit for bit.
    """
    return _cn_noise(shape, 1.0, generator)


def sample_standard_gaussian(n: int, rng: RngStream) -> np.ndarray:
    """n x n matrix of i.i.d. zero-mean unit-variance complex Gaussians."""
    if n < 1:
        raise DimensionError(f"dimension must be >= 1, got {n}")
    return complex_gaussian((n, n), rng.generator())


def normalize(h) -> ChannelRealization:
    """Rescale a square channel so its squared Frobenius norm equals N^2.

    The sum of squared singular values of the result equals ``N**2``, which
    fixes the per-antenna receive SNR at ``N / noise_variance``.

    Raises
    ------
    DegenerateInputError
        If ``h`` is all zero.
    """
    m = linalg._require_square(linalg.as_complex_matrix(h, name="channel"), "channel")
    fro = float(np.linalg.norm(m))
    if fro == 0.0:
        raise DegenerateInputError("cannot normalize an all-zero channel")
    n = m.shape[0]
    scaled = m * (n / fro)
    spectrum = linalg.singular_values(scaled)
    return ChannelRealization(matrix=scaled, spectrum=spectrum, provenance="normalized")


def sample_floored(
    n: int,
    sigma_min: float,
    rng: RngStream,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> ChannelRealization:
    """Normalized Gaussian channel conditioned on ``sigma_N >= sigma_min``.

    Draws standard complex Gaussian channels, normalizes each, and accepts
    the first whose smallest singular value clears the floor.

    Raises
    ------
    SamplingExhaustedError
        After ``max_attempts`` rejected draws; this signals the floor is
        unattainably high for the requested dimension.
    """
    if n < 1:
        raise DimensionError(f"dimension must be >= 1, got {n}")
    floor = float(sigma_min)
    if not math.isfinite(floor) or floor < 0.0:
        raise ValueError(f"sigma_min must be finite and >= 0, got {sigma_min!r}")
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    g = rng.generator()
    for _ in range(max_attempts):
        raw = complex_gaussian((n, n), g)
        fro = float(np.linalg.norm(raw))
        if fro == 0.0:  # probability zero, but keep the loop total
            continue
        scaled = raw * (n / fro)
        spectrum = np.linalg.svd(scaled, compute_uv=False)
        if spectrum[-1] >= floor:
            return ChannelRealization(
                matrix=scaled,
                spectrum=spectrum,
                provenance="floored",
                sigma_min=floor,
            )
    raise SamplingExhaustedError(
        f"no draw with sigma_min >= {floor} in {max_attempts} attempts (n={n})",
        attempts=max_attempts,
    )


def haar_unitary(n: int, generator: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary matrix.

    QR-orthonormalizes a standard complex Gaussian matrix and fixes the
    phase of each diagonal scaling factor to be positive real, which makes
    the distribution uniform on the unitary group.
    """
    return _phase_fixed_q(complex_gaussian((n, n), generator))


def _phase_fixed_q(z: np.ndarray) -> np.ndarray:
    """Unitary QR factor of ``z`` with each diagonal entry of R made positive real.

    Works on the last two axes, so ``z`` may be one matrix ``(n, n)`` or a
    stack ``(..., n, n)``; for i.i.d. CN(0, 1) input every factor is Haar
    distributed.  A column whose diagonal entry of R is zero is left as is.
    """
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    mag = np.abs(d)
    phases = np.where(mag == 0.0, 1.0, d / np.where(mag == 0.0, 1.0, mag))
    return q * phases[..., None, :]


def _spectrum_profile(n: int, cond: float, sigma_min: float, interior: str) -> np.ndarray:
    """Descending spectrum with ``s[0] = cond * sigma_min`` and ``s[-1] = sigma_min``.

    ``interior`` places the values in between: ``"top"`` pins them to the
    largest value, ``"geometric"`` spaces them logarithmically.
    """
    top = cond * sigma_min
    if interior == "top":
        s = np.full(n, top)
    elif interior == "geometric":
        s = np.geomspace(top, sigma_min, n)
        s[0] = top
    else:
        raise ValueError(f"unknown interior profile {interior!r}")
    s[-1] = sigma_min
    return s


def _synthesized_stack(spectrum: np.ndarray, count: int, generator: np.random.Generator):
    """Stack ``(count, n, n)`` of channels ``U diag(spectrum) V^H``.

    ``U`` and ``V`` are independent Haar unitaries: all of the stack's ``U``
    draws come first, then all of its ``V`` draws.
    """
    n = spectrum.size
    u = _phase_fixed_q(complex_gaussian((count, n, n), generator))
    v = _phase_fixed_q(complex_gaussian((count, n, n), generator))
    return (u * spectrum) @ v.conj().swapaxes(-1, -2)


def synthesize_spectrum(
    n: int,
    cond: float,
    sigma_min: float,
    rng: RngStream,
    interior: str = "top",
) -> ChannelRealization:
    """Channel with prescribed condition number and smallest singular value.

    Builds ``H = U diag(s) V^H`` from independent Haar-random unitaries with
    ``s[0] = cond * sigma_min`` and ``s[-1] = sigma_min``.  The result is
    deliberately *not* Frobenius-normalized: a prescribed (cond, sigma_min)
    pair is generally incompatible with the N^2 power constraint.

    Parameters
    ----------
    interior : {"top", "geometric"}
        Placement of the interior singular values.  ``"top"`` (default)
        pins them to the largest value, so the extremes of any spectral
        function of H are attained at the prescribed endpoints;
        ``"geometric"`` spaces them logarithmically between the endpoints.
    """
    if n < 2:
        raise DimensionError(f"dimension must be >= 2, got {n}")
    c = float(cond)
    if not math.isfinite(c) or c < 1.0:
        raise ValueError(f"cond must be finite and >= 1, got {cond!r}")
    smin = float(sigma_min)
    if not math.isfinite(smin) or smin <= 0.0:
        raise ValueError(f"sigma_min must be finite and > 0, got {sigma_min!r}")
    s = _spectrum_profile(n, c, smin, interior)
    return ChannelRealization(
        matrix=_synthesized_stack(s, 1, rng.generator())[0],
        spectrum=s,
        provenance="synthesized",
        sigma_min=smin,
        cond=c,
    )


def sample_noise(n: int, noise: NoiseModel, rng: RngStream) -> np.ndarray:
    """Length-n noise vector with i.i.d. CN(0, variance) entries."""
    if n < 1:
        raise DimensionError(f"dimension must be >= 1, got {n}")
    return _cn_noise(n, noise.variance, rng.generator())


def _cn_noise(shape, variance: float, generator: np.random.Generator) -> np.ndarray:
    """i.i.d. CN(0, variance) array; leading axes of ``shape`` are batch axes."""
    scale = math.sqrt(variance * 0.5)
    re = generator.standard_normal(shape)
    im = generator.standard_normal(shape)
    return scale * (re + 1j * im)


def transmit(h, x, noise_sample) -> np.ndarray:
    """Received vector ``H x + n`` with strict dimension checking."""
    m = linalg.as_complex_matrix(h, name="channel")
    xv = linalg.as_complex_vector(x, name="transmit vector")
    nv = linalg.as_complex_vector(noise_sample, name="noise vector")
    if m.shape[1] != xv.shape[0]:
        raise DimensionError(
            f"channel has {m.shape[1]} columns but transmit vector has length {xv.shape[0]}"
        )
    if m.shape[0] != nv.shape[0]:
        raise DimensionError(
            f"channel has {m.shape[0]} rows but noise vector has length {nv.shape[0]}"
        )
    return m @ xv + nv
