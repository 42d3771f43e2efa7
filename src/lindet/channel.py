"""Random channel ensembles and the noise of the ``r = Hx + n`` model.

Entries of the basic ensemble are zero-mean unit-variance circularly
symmetric complex Gaussians (real and imaginary parts each with variance
1/2).  Derived ensembles rescale each realization so the squared Frobenius
norm equals ``N**2``, optionally reject draws whose smallest singular value
falls below a floor, or synthesize a channel with a prescribed spectrum
from independent Haar-random unitary factors.  Each has one kernel on
stacks ``(count, n, n)``, with one check of its inputs: the public
functions use stacks of one and the runners of :mod:`lindet.experiments`
whole blocks, so both give the same bits from the same draws.  Runners
that need only the singular values of Gaussian channels draw them from
the bidiagonal model of the same ensemble (:func:`_gaussian_spectra`),
which has the same law as decomposing a dense draw at a fraction of the
work and memory; it does not give the same bits.

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

    ``provenance`` records how the matrix was produced:
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
        If the squared Frobenius norm of ``h`` is zero or not a finite
        normal float: it underflows or overflows.
    """
    m = linalg._require_square(h, "channel")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(m, axis=(-2, -1)))
    if not np.finfo(float).tiny <= norm * norm < math.inf:
        raise DegenerateInputError(
            "cannot normalize a channel whose squared Frobenius norm is zero or not a normal float"
        )
    scaled = _normalized(m)
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
    the first whose smallest singular value clears the floor, with the
    rejection kernel of the floored BER runner.

    Raises
    ------
    SamplingExhaustedError
        At once, with ``attempts == 0``, if the floor is ``sqrt(n)`` or more,
        which no normalized channel clears; else after ``max_attempts``
        rejected draws, a sign that the floor is improbably high.
    """
    if n < 1:
        raise DimensionError(f"dimension must be >= 1, got {n}")
    floor = _check_floor(n, sigma_min, max_attempts)
    h, s = _floored_stack(rng.generator(), 1, n, floor, max_attempts)
    return ChannelRealization(matrix=h[0], spectrum=s[0], provenance="floored", sigma_min=floor)


def _check_floor(n: int, sigma_min: float, max_attempts: int) -> float:
    """The floor as a float; ``sigma_N <= sqrt(n)`` makes a floor that high fail at once."""
    floor = float(sigma_min)
    if not math.isfinite(floor) or floor < 0.0:
        raise ValueError(f"sigma_min must be finite and >= 0, got {sigma_min!r}")
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    if floor >= math.sqrt(n):
        raise SamplingExhaustedError(
            f"sigma_min floor {floor} is unattainable: normalized {n}x{n} channels "
            f"have sigma_min <= sqrt({n}) = {math.sqrt(n):.6g}",
            attempts=0,
        )
    return floor


def _normalized(m: np.ndarray) -> np.ndarray:
    """``m`` scaled so each matrix on the last two axes has squared Frobenius norm N^2."""
    n = m.shape[-1]
    return m * (n / np.linalg.norm(m, axis=(-2, -1)))[..., None, None]


def _normalized_draw(g: np.random.Generator, count: int, n: int):
    """Normalized CN(0, 1) stack ``(count, n, n)`` and its descending spectra."""
    h = _normalized(complex_gaussian((count, n, n), g))
    return h, np.linalg.svd(h, compute_uv=False)


def _gaussian_spectra(
    g: np.random.Generator, count: int, n: int, beta: int, normalized: bool = True
) -> np.ndarray:
    """Descending singular values ``(count, n)`` of ``n x n`` Gaussian matrices.

    ``beta = 1`` is the real ensemble with N(0, 1) entries and ``beta = 2``
    the complex one with CN(0, 1) entries; ``normalized`` rescales each
    realization to squared Frobenius norm N^2.  Such a matrix has the
    singular values of an upper bidiagonal matrix B with independent
    entries, diagonal ``chi_{beta (n - i)} / sqrt(beta)`` and superdiagonal
    ``chi_{beta (n - 1 - i)} / sqrt(beta)`` (Dumitriu & Edelman 2002), and
    the same Frobenius norm, so B is drawn, rescaled and decomposed
    instead: all diagonals first, then all superdiagonals.  LAPACK returns
    a bidiagonal's singular values to high relative accuracy (Demmel &
    Kahan 1990), the smallest included.
    """
    i = np.arange(n)
    j = i[:-1]
    b = np.zeros((count, n, n))
    b[:, i, i] = np.sqrt(g.chisquare(beta * (n - i), size=(count, n)) / beta)
    b[:, j, j + 1] = np.sqrt(g.chisquare(beta * (n - 1 - j), size=(count, n - 1)) / beta)
    if normalized:
        b = _normalized(b)
    return np.linalg.svd(b, compute_uv=False)


def _floored_stack(g: np.random.Generator, count: int, n: int, floor: float, max_attempts: int):
    """Normalized stack ``(count, n, n)`` with ``sigma_N >= floor``, and its spectra.

    Each round draws the slots still open, in ascending order, as one stacked
    draw and decomposes only those.  The sampling is exhausted as soon as one
    slot has been rejected ``max_attempts`` times.
    """
    h = np.empty((count, n, n), dtype=np.complex128)
    s = np.empty((count, n))
    bad = np.arange(count)
    for _ in range(max_attempts):
        h[bad], s[bad] = _normalized_draw(g, bad.size, n)
        bad = bad[s[bad, -1] < floor]
        if not bad.size:
            return h, s
    raise SamplingExhaustedError(
        f"no draw with sigma_min >= {floor} for {bad.size} of {count} "
        f"slots within {max_attempts} attempts (n={n})",
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


def _check_spectrum(cond: float, sigma_mins) -> tuple[float, tuple[float, ...]]:
    """``cond`` and ``sigma_mins`` as floats, once they pass the prescribed-spectrum rules."""
    c = float(cond)
    if not math.isfinite(c) or c < 1.0:
        raise ValueError(f"cond must be finite and >= 1, got {cond!r}")
    smins = tuple(float(x) for x in sigma_mins)
    if not smins:
        raise ValueError("sigma_min grid must be nonempty")
    if not all(x > 0.0 and math.isfinite(c * x) for x in smins):
        raise ValueError(f"sigma_min must be > 0 with cond * sigma_min finite, got {sigma_mins!r}")
    return c, smins


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
    c, (smin,) = _check_spectrum(cond, [sigma_min])
    s = _spectrum_profile(n, c, smin, interior)
    return ChannelRealization(
        matrix=_synthesized_stack(s, 1, rng.generator())[0],
        spectrum=s,
        provenance="synthesized",
        sigma_min=smin,
        cond=c,
    )


def _cn_noise(shape, variance: float, generator: np.random.Generator) -> np.ndarray:
    """i.i.d. CN(0, variance) array; leading axes of ``shape`` are batch axes."""
    scale = math.sqrt(variance * 0.5)
    re = generator.standard_normal(shape)
    im = generator.standard_normal(shape)
    return scale * (re + 1j * im)
