"""Random channel ensembles and the noise of the ``r = Hx + n`` model.

Entries of the basic ensemble are zero-mean unit-variance circularly
symmetric complex Gaussians (real and imaginary parts each with variance
1/2).  Derived ensembles rescale each realization so the squared Frobenius
norm equals ``N**2``, optionally reject draws whose smallest singular value
falls below a floor, or synthesize a channel with a prescribed spectrum
from independent Haar-random unitary factors.  Each has one kernel, with
one check of its inputs.  The sampling kernels work on stacks
``(count, n, n)``: the public functions use stacks of one and the runners
of :mod:`lindet.experiments` whole blocks or slices of them
(:func:`_slices`; README, "Blocks and slices"), so both give the same bits
from the same draws.  No matrix's arithmetic depends on the rest of its
stack.  The synthesis (:func:`_synthesized`) builds one matrix, as only
the public functions call it.
Where only the singular values of Gaussian channels matter, they come from
the bidiagonal model of the same ensemble (:func:`_gaussian_bidiagonal`),
which has the same law as decomposing a dense draw at a fraction of the
work and memory; it does not give the same bits.  The table1 and gain
runners decompose the bidiagonal (:func:`_gaussian_spectra`); the cdf
runner only asks whether sigma_min is strictly below each grid point and
answers from Sturm counts, without decomposing (:func:`_sigma_min_below`).
A floor on sigma_min is met the same way (:func:`_floored_spectra`): one
stream of candidate bidiagonals, drawn in rounds sized from the acceptance
seen so far, each accepted or rejected on one Sturm count, fills the stack
in order; only the accepted candidates are decomposed.  The law of a
normalized Gaussian channel is unitarily invariant, so a floored channel is
``U diag(s) V^H`` with independent Haar factors; the floored BER runner
drops ``U``, which CN noise does not see.

All sampling routines are pure functions of an :class:`RngStream` value, so
identical streams reproduce identical draws regardless of process or worker
layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import DegenerateInputError, SamplingExhaustedError

#: Default rejection budget for floored sampling.
DEFAULT_MAX_ATTEMPTS = 10**6

#: Most matrix elements a kernel holds densely at once: it cuts its stack
#: into slices of ``max(1, 2**13 // N**2)`` matrices (:func:`_slices`).  The
#: slice fixes the BER draws, so it is part of the stream layout.
_SLICE_ELEMENTS = 2**13

#: Most diagonal entries of candidate bidiagonals one floored rejection
#: round draws: 8192 candidates at N = 4.  Part of the stream layout too.
_ROUND_ELEMENTS = 2**15


def _slices(count: int, n: int) -> list[slice]:
    """Slices of ``range(count)`` of at most ``max(1, _SLICE_ELEMENTS // n**2)`` matrices."""
    step = max(1, _SLICE_ELEMENTS // (n * n))
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


@dataclass(frozen=True)
class NoiseModel:
    """Additive white Gaussian noise with per-entry variance ``variance``.

    The noise vector satisfies ``E[n n^H] = variance * I``.
    """

    variance: float

    def __post_init__(self):
        object.__setattr__(self, "variance", linalg._real("noise variance", self.variance, 0.0))


@dataclass(frozen=True)
class RngStream:
    """Addressable, reproducible random stream.

    A stream is identified by a 64-bit master seed plus a tuple of
    nonnegative child indices.  The seed and each index follow the count
    rule of :func:`lindet.linalg._integer` (``3.0`` is ``3``; ``0.5``,
    ``True`` and ``'3'`` are a ValueError), so two different addresses never
    share draws.  Two streams with the same address always produce
    bit-identical draws; streams with different addresses are
    statistically independent.  Derive substreams with :meth:`child`, e.g.
    one per (experiment, grid point, trial block).
    """

    master_seed: int
    key: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "master_seed", linalg._integer("master_seed", self.master_seed, 0))
        key = tuple(linalg._integer("stream index", k, 0) for k in self.key)
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


def complex_gaussian(shape, generator: np.random.Generator, variance: float = 1.0) -> np.ndarray:
    """i.i.d. CN(0, variance) array: real/imaginary parts each have variance ``variance / 2``.

    ``shape`` may carry leading batch axes: ``(count, n, n)`` draws a stack
    of ``count`` channels from one generator, all real parts first, so a
    stack of one equals the single ``(n, n)`` draw bit for bit.
    """
    z = np.empty(shape, dtype=np.complex128)
    z.real = generator.standard_normal(shape)
    z.imag = generator.standard_normal(shape)
    z *= math.sqrt(variance * 0.5)
    return z


def sample_standard_gaussian(n: int, rng: RngStream) -> np.ndarray:
    """n x n matrix of i.i.d. zero-mean unit-variance complex Gaussians.

    ``n`` is a dimension >= 1 (:func:`lindet.linalg._dimension`).
    """
    n = linalg._dimension("n", n, 1)
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

    A floor of 0 accepts the first normalized draw.  Above 0 the spectrum
    comes from the rejection kernel of the floored BER runner
    (:func:`_floored_spectra`) and the channel is ``U diag(s) V^H`` with
    independent Haar factors, which has the law of the first dense draw
    that clears the floor.

    Raises
    ------
    ValueError
        If ``n`` is not a dimension >= 1 (:func:`lindet.linalg._dimension`),
        the floor is negative or not finite, or ``max_attempts`` is not an
        integer >= 1; before any draw.
    SamplingExhaustedError
        At once, with ``attempts == 0``, if the floor is ``sqrt(n)`` or more,
        which no normalized channel clears; else after ``max_attempts``
        rejected draws, a sign that the floor is improbably high.
    """
    n = linalg._dimension("n", n, 1)
    max_attempts = linalg._integer("max_attempts", max_attempts, 1)
    floor = _check_floor(n, sigma_min)
    g = rng.generator()
    if floor == 0.0:
        [h], [s] = _normalized_draw(g, 1, n)
    else:
        [s] = _floored_spectra(g, 1, n, floor, max_attempts)
        h = _synthesized(s, g)
    return ChannelRealization(matrix=h, spectrum=s, provenance="floored", sigma_min=floor)


def _check_floor(n: int, sigma_min: float) -> float:
    """The floor as a float; ``sigma_N <= sqrt(n)`` makes a floor that high fail at once."""
    floor = linalg._real("sigma_min", sigma_min, 0.0)
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


def _gaussian_bidiagonal(g: np.random.Generator, count: int, n: int, beta: int):
    """Diagonals ``d (count, n)`` and superdiagonals ``e (count, n - 1)`` of B.

    ``beta = 1`` is the real ensemble with N(0, 1) entries and ``beta = 2``
    the complex one with CN(0, 1) entries.  Such an ``n x n`` matrix has the
    singular values and the Frobenius norm of an upper bidiagonal matrix B
    with independent entries, diagonal ``chi_{beta (n - i)} / sqrt(beta)``
    and superdiagonal ``chi_{beta (n - 1 - i)} / sqrt(beta)`` (Dumitriu &
    Edelman 2002): all diagonals are drawn first, then all superdiagonals.
    """
    i = np.arange(n)
    d = g.chisquare(beta * (n - i), size=(count, n))
    e = g.chisquare(beta * (n - 1 - i[:-1]), size=(count, n - 1))
    for x in (d, e):
        np.sqrt(np.divide(x, beta, out=x), out=x)
    return d, e


def _normalized_bidiagonal(g: np.random.Generator, count: int, n: int):
    """The complex B of :func:`_gaussian_bidiagonal`, scaled to squared Frobenius norm N^2.

    Bidiagonalization keeps the Frobenius norm, so this is the bidiagonal
    model of a normalized channel.
    """
    d, e = _gaussian_bidiagonal(g, count, n, 2)
    scale = (n / np.sqrt(np.sum(d * d, axis=1) + np.sum(e * e, axis=1)))[:, None]
    return np.multiply(d, scale, out=d), np.multiply(e, scale, out=e)


def _gaussian_spectra(g: np.random.Generator, count: int, n: int) -> np.ndarray:
    """Descending singular values ``(count, n)`` of normalized CN(0, 1) channels."""
    return _bidiagonal_svd(*_gaussian_bidiagonal(g, count, n, 2))


def _bidiagonal_svd(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Descending singular values ``(count, n)`` of B rescaled to squared Frobenius norm N^2.

    Each slice (:func:`_slices`) of the diagonals ``d (count, n)`` and
    superdiagonals ``e (count, n - 1)`` is scattered into a dense buffer,
    rescaled and decomposed, so the dense stage holds one slice, not the
    whole stack.  LAPACK returns a bidiagonal's singular values to high
    relative accuracy (Demmel & Kahan 1990), the smallest included.
    """
    count, n = d.shape
    i = np.arange(n)
    s = np.empty((count, n))
    for c in _slices(count, n):
        b = np.zeros((c.stop - c.start, n, n))
        b[:, i, i], b[:, i[:-1], i[1:]] = d[c], e[c]
        s[c] = np.linalg.svd(_normalized(b), compute_uv=False)
    return s


def _sigma_min_below(d: np.ndarray, e: np.ndarray, grid) -> np.ndarray:
    """Booleans ``(count, len(grid))``: is the smallest singular value of B below x?

    B is upper bidiagonal with diagonals ``d (count, n)`` and superdiagonals
    ``e (count, n - 1)``.  Its Golub-Kahan form T, the ``2n x 2n`` tridiagonal
    with zero diagonal and off-diagonals ``(d_1, e_1, d_2, ..., d_n)``, has
    eigenvalues ``+-sigma_i``, so for x > 0 some ``sigma_i < x`` exactly
    when more than n of its eigenvalues lie below x: more than n negative
    pivots ``q_1 = -x``, ``q_{k+1} = -x - c_k / q_k`` of ``T - xI``, with
    ``c_k`` the squared off-diagonals.  Each trial bisects over the sorted
    positive grid points with one such Sturm count per probe, which decides
    to high relative accuracy (Demmel & Kahan 1990) without decomposing B.
    As in LAPACK's ``dlaneg`` the pivots run in IEEE arithmetic, unguarded:
    a zero pivot is ``+0`` (a difference of equal numbers), counts as
    nonnegative and makes the next one ``-inf``, which counts in its place,
    and a zero last pivot makes x a singular value, not below itself; an
    overflow or underflow changes no sign.  A zero ``c_k`` splits T, so the
    count restarts after it: the next pivot is ``-x`` whatever came before,
    the ``0 / 0`` of a zero pivot included.  The entries and their squares
    must be finite; then no pivot is NaN.  No singular value is below an
    ``x <= 0`` or a NaN.
    """
    count, n = d.shape
    c2 = np.empty((2 * n - 1, count))
    c2[0::2] = (d * d).T
    c2[1::2] = (e * e).T
    grid = np.asarray(grid, dtype=float)
    xs = np.sort(grid[grid > 0.0])
    # Trial t is below xs[j] exactly for j >= lo[t]; bisect on lo in [0, xs.size].
    lo = np.zeros(count, dtype=np.intp)
    hi = np.full(count, xs.size, dtype=np.intp)
    negative = np.empty(c2.shape, dtype=bool)
    splits = ~c2.all(axis=1)
    q = np.empty(count)
    for _ in range(xs.size.bit_length()):
        mid = (lo + hi) // 2
        neg_x = -xs[np.minimum(mid, xs.size - 1)]
        q[:] = neg_x
        with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
            for ck, neg, split in zip(c2, negative, splits):
                np.divide(ck, q, out=q)
                np.subtract(neg_x, q, out=q)
                if split:
                    np.copyto(q, neg_x, where=ck == 0.0)
                np.less(q, 0.0, out=neg)
        below = np.count_nonzero(negative, axis=0) >= n
        hi = np.where(below, mid, hi)
        lo = np.where(below | (lo == hi), lo, mid + 1)
    return (grid > 0.0) & (np.searchsorted(xs, grid) >= lo[:, None])


def _floored_spectra(g: np.random.Generator, count: int, n: int, floor: float, max_attempts: int):
    """Descending spectra ``(count, n)`` of normalized CN(0, 1) channels with ``sigma_N >= floor``.

    One stream of candidate bidiagonals of normalized channels
    (:func:`_normalized_bidiagonal`) is accepted or rejected on one Sturm
    count each (:func:`_sigma_min_below`); slot ``i`` takes the ``i``-th
    accepted candidate, which has the law of a first accepted draw as the
    candidates are i.i.d., and only the accepted ones are decomposed, round
    by round (:func:`_bidiagonal_svd`).  The first round draws
    ``min(count, cap)`` candidates, ``cap = _ROUND_ELEMENTS // n``.  While
    nothing has been accepted each round draws twice as many as the one
    before; after that, the ``need = ceil(open * drawn / accepted)``
    candidates that would fill the open slots at the acceptance seen so
    far, plus ``3 isqrt(need) + 8``; never more than the cap.  The sampling
    is exhausted when ``max_attempts`` candidates in a row after the
    previous acceptance are rejected, so a hopeless floor costs at most
    ``max_attempts`` candidates and one round at any ``count``.
    """
    s = np.empty((count, n))
    cap = max(1, _ROUND_ELEMENTS // n)
    taken, drawn, run, k = 0, 0, 0, min(count, cap)
    while taken < count:
        cd, ce = _normalized_bidiagonal(g, k, n)
        hits = np.flatnonzero(~_sigma_min_below(cd, ce, [floor])[:, 0])[: count - taken]
        # The rejections before each acceptance, then after the last if a slot stays open.
        end = hits[-1] + 1 if hits.size == count - taken else k
        runs = np.diff(hits, prepend=-1 - run, append=end) - 1
        if runs.max() >= max_attempts:
            raise SamplingExhaustedError(
                f"no draw with sigma_min >= {floor} within {max_attempts} attempts (n={n})",
                attempts=max_attempts,
            )
        if hits.size:
            s[taken : taken + hits.size] = _bidiagonal_svd(cd[hits], ce[hits])
        taken, drawn, run = taken + hits.size, drawn + k, runs[-1]
        if taken:
            need = -(-(count - taken) * drawn // taken)
            k = min(need + 3 * math.isqrt(need) + 8, cap)
        else:
            k = min(2 * k, cap)
    return s


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


def _synthesized(spectrum: np.ndarray, generator: np.random.Generator) -> np.ndarray:
    """Channel ``U diag(spectrum) V^H`` with independent Haar ``U``, then ``V``."""
    n = spectrum.shape[0]
    u = _phase_fixed_q(complex_gaussian((n, n), generator))
    v = _phase_fixed_q(complex_gaussian((n, n), generator))
    return (u * spectrum) @ v.conj().T


def _check_spectrum(cond: float, sigma_mins) -> tuple[float, tuple[float, ...]]:
    """``cond`` and ``sigma_mins`` as floats, once they pass the prescribed-spectrum rules."""
    c = linalg._real("cond", cond, 1.0)
    smins = linalg._grid("sigma_min grid", sigma_mins)
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
    n : int
        A dimension >= 2 (:func:`lindet.linalg._dimension`).
    interior : {"top", "geometric"}
        Placement of the interior singular values.  ``"top"`` (default)
        pins them to the largest value, so the extremes of any spectral
        function of H are attained at the prescribed endpoints;
        ``"geometric"`` spaces them logarithmically between the endpoints.
    """
    n = linalg._dimension("n", n, 2)
    c, (smin,) = _check_spectrum(cond, [sigma_min])
    s = _spectrum_profile(n, c, smin, interior)
    return ChannelRealization(
        matrix=_synthesized(s, rng.generator()),
        spectrum=s,
        provenance="synthesized",
        sigma_min=smin,
        cond=c,
    )

