"""Seeded, parallelizable Monte Carlo experiment drivers.

Each Monte Carlo runner produces a :class:`ResultTable` of tagged rows
with means and standard errors.  Trials are partitioned into blocks whose
size depends only on the matrix dimension N: ``min(8192, BLOCK_ELEMENTS // N**2)``
matrices, and at least one, so no block holds much more than
``BLOCK_ELEMENTS`` matrix elements.  Every block derives its own random
substream from ``(master_seed, experiment tag, grid-point index, block
index)``.  A block kernel returns only per-trial columns, trials on axis
0; each block reduces every column to its count, total and total of
squares, and the blocks merge in a fixed order with exact summation, so
results are bit-identical regardless of the worker count and of how blocks
are scheduled.  Runners derive means and standard errors from those
triples alone.  The block fixes the streams: a kernel makes its block's
draws in one order.  The table1, gain and cdf kernels draw their whole
block's bidiagonals first, which grow with the block by O(N) floats a
trial; their dense work (scattering, normalizing, decomposing) then runs in
chunks of at most :data:`lindet.channel.CHUNK_ELEMENTS` elements.  No
matrix's arithmetic depends on its neighbours, so the chunk size moves no
output byte: tables record ``block_elements`` and not the chunk budget.
The BER kernel draws dense matrices, so it draws and finishes its trials
in slices of at most ``lindet.channel._DRAW_ELEMENTS`` elements, each
slice's draws in one order; the slice is part of the stream layout, and a
worker holds a few slices, not a copy of the block.
With ``workers > 1`` each grid point's blocks run in a process pool whose
workers are forked after the parent has loaded every module a kernel needs
(:func:`_run_blocks`), so a worker does only block work.  A kernel must
therefore not import lazily, nor call a NumPy function that does (such as
``np.unique``, which loads ``numpy.ma``).  The pool class is the
module-level name ``ProcessPoolExecutor``, which tests and the bench
tracer replace; it is ``None`` until the first pool starts.
This module holds that scheduling and reduction, and the block kernels,
which simulate the ``r = Hx + n`` transmission and call the maths of
:mod:`lindet.channel`, :mod:`lindet.detection` and :mod:`lindet.analysis`
on stacks; a floored BER block applies its factor-form filters itself.
Every Monte Carlo estimate in lindet runs here, the distortion-SNR oracle
included.  The condition-ratio sweep is not one: its columns are closed
forms of a prescribed spectrum, so it draws nothing.

Under stream layout 6 (``STREAM_LAYOUT``, recorded in every table) the
table1, gain and cdf runners, which read only singular values, draw the
bidiagonal Gaussian model (:func:`lindet.channel._gaussian_bidiagonal`);
the unfloored BER runner draws channel matrices.  table1 and gain decompose
each bidiagonal.  cdf does not: a cdf row counts the trials whose
sigma_min is strictly below its grid point, decided by Sturm counts
(:func:`lindet.channel._sigma_min_below`), and a tail row counts the
complement.  An SVD comparison ``sigma_min <= x`` differs only where
sigma_min equals x, which has probability zero, so it gives the same
counts.  A floored BER block takes its spectra, O(N) floats a trial, for
the whole block from the rejection kernel of
:func:`lindet.channel.sample_floored`, which rejects on the same Sturm
counts, before its first slice, and sizes its rejection rounds after the
first acceptance from the acceptance seen so far; it filters
``H = diag(s) V^H`` with a Haar ``V`` in factor form: CN noise does not see
H's left unitary factor.

Two receive-SNR conventions coexist and are recorded per table:

* ``"receive_n_over_sigma2"`` - BER and gain sweeps define receive SNR as
  ``N / noise_variance``, which matches the per-antenna SNR under the
  squared-Frobenius-norm-equals-N^2 channel normalization.
* ``"inverse_sigma2"`` - the condition-ratio sweep defines SNR as
  ``1 / noise_variance``.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from ._version import __version__
from .analysis import (
    _gain_db,
    _mmse_snr_terms,
    _spectral_conds,
    _zf_snr,
    cond_ratio_approx,
    edelman_tail,
)
from .channel import (
    DEFAULT_MAX_ATTEMPTS,
    NoiseModel,
    RngStream,
    _DRAW_ELEMENTS,
    _check_floor,
    _check_spectrum,
    _chunks,
    _cn_noise,
    _floored_spectra,
    _gaussian_bidiagonal,
    _gaussian_spectra,
    _normalized,
    _normalized_bidiagonal,
    _phase_fixed_q,
    _sigma_min_below,
    _spectrum_profile,
    complex_gaussian,
)
from .detection import FilterMatrix, _filters, qpsk_modulate, qpsk_slice
from .exceptions import DimensionError

_BLOCK = 8192

#: Most matrix elements a block may hold: blocks of ``N x N`` draws have
#: ``min(8192, BLOCK_ELEMENTS // N**2)`` matrices, and at least one.
BLOCK_ELEMENTS = 2**22

#: Version of the map from a stream address to the draws it feeds; it
#: changes whenever a runner's output bytes change on purpose.
STREAM_LAYOUT = 6

# Stable experiment tags used as stream-key components.
_TAG_TABLE1 = 1
_TAG_GAIN = 2
_TAG_CDF = 3
_TAG_EDELMAN = 4
_TAG_BER = 5

CONVENTION_RECEIVE = "receive_n_over_sigma2"
CONVENTION_INVERSE = "inverse_sigma2"

#: Default grid on which minimum-singular-value CDFs are tabulated.
DEFAULT_CDF_GRID = tuple(np.round(np.arange(0.0, 1.5001, 0.025), 6))

#: Default scaled-minimum-singular-value tail abscissas.
DEFAULT_TAIL_GRID = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)


@dataclass
class ResultTable:
    """Tagged experiment output rows plus reproducibility metadata.

    Every row additionally carries the master seed and trial count that
    produced it; ``columns`` lists the documented serialization schema.
    """

    experiment: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def select(self, **criteria) -> list[dict]:
        """Rows whose fields equal all given criteria."""
        out = []
        for row in self.rows:
            if all(row.get(k) == v for k, v in criteria.items()):
                out.append(row)
        return out


def noise_var_from_snr(snr_db: float, n: int) -> NoiseModel:
    """Noise variance for a per-antenna receive SNR of ``snr_db`` dB.

    Under the N^2 channel power normalization the receive SNR per antenna
    is ``N / variance``, so ``variance = N / 10**(snr_db / 10)``.  Raises
    ``ValueError`` unless that is a finite number >= 0.
    """
    if n < 1:
        raise DimensionError(f"dimension must be >= 1, got {n}")
    return _noise_model(lambda: n / 10.0 ** (float(snr_db) / 10.0), snr_db)


def noise_var_from_inverse_snr(snr_db: float) -> NoiseModel:
    """Noise variance under the ``1 / variance`` dB convention.

    Raises ``ValueError`` unless it is a finite number >= 0.
    """
    return _noise_model(lambda: 10.0 ** (-float(snr_db) / 10.0), snr_db)


def _noise_model(variance, snr_db) -> NoiseModel:
    """``NoiseModel(variance())``; a power of ten beyond the float range is a ValueError."""
    try:
        return NoiseModel(variance())
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"SNR {snr_db!r} dB puts the noise variance out of range") from None


# ---------------------------------------------------------------------------
# block scheduling and reduction
# ---------------------------------------------------------------------------


def _block_matrices(n: int) -> int:
    """Matrices per block for ``n x n`` draws under the element budget."""
    return max(1, min(_BLOCK, BLOCK_ELEMENTS // (n * n)))


def _block_sizes(trials: int, block: int) -> list[int]:
    sizes = [block] * (trials // block)
    if trials % block:
        sizes.append(trials % block)
    return sizes


#: The pool class :func:`_run_blocks` starts; ``None`` until its first pool.
ProcessPoolExecutor = None


def _run_blocks(worker, tasks: list, workers: int) -> list:
    """Run block tasks, preserving task order in the returned partials.

    A pool never has more processes than tasks or than CPUs this process
    may run on.  Its workers are forked after this process has loaded
    every module a block kernel needs, so that a worker does only block
    work; a kernel must therefore not import anything lazily.  The pool
    class is the module-level :data:`ProcessPoolExecutor`, the seam that
    tests and the bench tracer replace.  It is ``None`` until the first
    pool starts and imports it, so ``import lindet`` and runs without a pool
    never load ``multiprocessing``; a replacement is used as it is.
    """
    global ProcessPoolExecutor
    if workers <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    # NumPy 2 loads numpy.random on first use, and this process draws
    # nothing before the fork, so without this each worker would import its
    # own copy (about 13 ms a worker).  Here and not at module level, where
    # it slowed every CLI start-up, pooled or not; the pool stack likewise.
    import numpy.random  # noqa: F401

    if ProcessPoolExecutor is None:
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks), cpus)) as pool:
        return list(pool.map(worker, tasks))


def _run_block(task) -> list[tuple]:
    """``(count, total, total of squares)`` over axis 0 of each column the kernel returns."""
    kernel, seed, key, args, count = task
    columns = kernel(RngStream(seed, key).generator(), *args, count)
    return [(len(x), np.sum(x, axis=0).tolist(), np.sum(x * x, axis=0).tolist()) for x in columns]


def _exact_sum(values):
    """Exact sum of per-block totals: ``math.fsum`` for floats, elementwise for lists."""
    if isinstance(values[0], list):
        return [_exact_sum(v) for v in zip(*values)]
    return math.fsum(values) if isinstance(values[0], float) else sum(values)


def _reduce(kernel, seed: int, key_prefix: tuple, args: tuple, trials: int, workers: int) -> list:
    """``(count, total, total of squares)`` of each of ``kernel``'s columns over one grid point.

    ``args[0]`` is the matrix dimension N, which sets the block size
    (:func:`_block_matrices`).  Block ``i`` calls ``kernel(generator, *args,
    count)`` with the generator of stream ``(seed, key_prefix + (i,))``; the
    kernel returns a tuple of per-trial columns with trials on axis 0, and
    :func:`_run_block` reduces each to a triple (a column with more axes
    gives lists of totals).  The triples merge in block order: counts and
    integer or boolean totals add exactly and float totals go through
    ``math.fsum``, so the result does not depend on ``workers``.  Every
    value is a Python ``int``, ``float`` or ``list``.
    """
    tasks = [
        (kernel, seed, key_prefix + (i,), args, size)
        for i, size in enumerate(_block_sizes(trials, _block_matrices(args[0])))
    ]
    parts = _run_blocks(_run_block, tasks, workers)
    return [tuple(_exact_sum(v) for v in zip(*blocks)) for blocks in zip(*parts)]


def _mean_se(count: int, total: float, total_sq: float) -> tuple[float, float]:
    if count < 1:
        return math.nan, math.nan
    mean = total / count
    if count == 1:
        return mean, math.nan
    var = max(0.0, (total_sq - count * mean * mean) / (count - 1))
    return mean, math.sqrt(var / count)


def _integer(name: str, value) -> int:
    """``value`` as an ``int``; integral floats pass, other non-integers are a ValueError."""
    if not isinstance(value, numbers.Integral) and not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_run(dims, trials: int, master_seed: int, workers: int):
    """The checks every runner shares, made before any block runs.

    Returns ``dims``, ``trials``, ``master_seed`` and ``workers`` as integers.
    """
    given = tuple(dims)
    if not all(float(n).is_integer() for n in given):
        raise ValueError(f"dims must be integers, got {given}")
    dims = tuple(int(n) for n in given)
    trials = _integer("trials", trials)
    master_seed = _integer("master_seed", master_seed)
    workers = _integer("workers", workers)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not dims or any(n < 2 for n in dims):
        raise ValueError(f"dims must be nonempty and all >= 2, got {dims}")
    if master_seed < 0:
        raise ValueError("master_seed must be nonnegative")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return dims, trials, master_seed, workers


def _result_table(
    experiment: str,
    rows: list[dict],
    seed: int,
    trials: int,
    convention: str,
    **metadata,
) -> ResultTable:
    """Table with the standard metadata; every row is stamped with seed and trials.

    The columns are the keys of the first row, in order, before the stamp.
    """
    stamp = {"seed": seed, "trials": trials}
    return ResultTable(
        experiment=experiment,
        columns=list(rows[0]),
        rows=[{**row, **stamp} for row in rows],
        metadata={
            **stamp,
            "snr_convention": convention,
            "version": __version__,
            "stream_layout": STREAM_LAYOUT,
            "block_elements": BLOCK_ELEMENTS,
            **metadata,
        },
    )


# ---------------------------------------------------------------------------
# minimum singular value and condition number statistics
# ---------------------------------------------------------------------------


def _table1_block(g, n, count):
    s = _gaussian_spectra(g, count, n)
    return s[:, -1], s[:, 0] / s[:, -1]


def run_table1(
    dims=(2, 4, 8, 12, 16, 20),
    trials: int = 10000,
    master_seed: int = 0,
    workers: int = 1,
) -> ResultTable:
    """Mean minimum singular value and condition number per dimension.

    Samples ``trials`` normalized channel realizations for each ``N`` in
    ``dims``.  Standard errors capture Monte Carlo noise and should only be
    trusted for trial counts of roughly a thousand or more.
    """
    dims, trials, master_seed, workers = _check_run(dims, trials, master_seed, workers)
    rows = []
    for n in dims:
        smin, cond = _reduce(_table1_block, master_seed, (_TAG_TABLE1, n), (n,), trials, workers)
        mean_s, se_s = _mean_se(*smin)
        mean_c, se_c = _mean_se(*cond)
        rows.append(
            {
                "n": n,
                "mean_sigma_min": mean_s,
                "se_sigma_min": se_s,
                "mean_cond": mean_c,
                "se_cond": se_c,
            }
        )
    return _result_table("table1", rows, master_seed, trials, "none", dims=list(dims))


# ---------------------------------------------------------------------------
# formula-based post-processing SNR gain sweep
# ---------------------------------------------------------------------------


def _gain_block(g, n, variance, count):
    s = _gaussian_spectra(g, count, n)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        numerator, denominator = _mmse_snr_terms(s, variance)
        gain = _gain_db(numerator / denominator, _zf_snr(s, variance))
    return (gain[np.isfinite(gain)],)


def run_gain_sweep(
    dims=(2, 4, 8, 12, 16, 20),
    snr_grid_db=(0.0, 10.0, 20.0, 30.0, 40.0, 50.0),
    trials: int = 5000,
    master_seed: int = 0,
    workers: int = 1,
) -> ResultTable:
    """Mean MMSE-over-ZF post-processing SNR gain (dB) per (N, receive SNR).

    For each normalized channel realization the two SNRs are evaluated in
    closed form from the spectrum and the gain is averaged in dB.  Rows
    report how many realizations produced non-finite gains and were
    excluded.
    """
    dims, trials, master_seed, workers = _check_run(dims, trials, master_seed, workers)
    snr_grid_db = tuple(float(s) for s in snr_grid_db)
    if not snr_grid_db:
        raise ValueError("snr_grid_db must be nonempty")
    variances = [[noise_var_from_snr(snr_db, n).variance for snr_db in snr_grid_db] for n in dims]
    rows = []
    for n, n_variances in zip(dims, variances):
        for si, (snr_db, variance) in enumerate(zip(snr_grid_db, n_variances)):
            [gain] = _reduce(
                _gain_block, master_seed, (_TAG_GAIN, n, si), (n, variance), trials, workers
            )
            mean_g, se_g = _mean_se(*gain)
            rows.append(
                {
                    "n": n,
                    "snr_db": snr_db,
                    "mean_gain_db": mean_g,
                    "se_gain_db": se_g,
                    "n_excluded": trials - gain[0],
                }
            )
    return _result_table(
        "gain", rows, master_seed, trials, CONVENTION_RECEIVE,
        dims=list(dims), snr_grid_db=list(snr_grid_db),
    )


# ---------------------------------------------------------------------------
# minimum singular value CDFs and the scaled tail law
# ---------------------------------------------------------------------------


def _cdf_block(g, n, grid, count):
    return (_sigma_min_below(*_normalized_bidiagonal(g, count, n), grid),)


def _edelman_block(g, n, tail_grid, count):
    # Real Gaussian entries with variance 1/n: the ensemble whose scaled
    # minimum singular value has the exp(-x - x^2/2) limit law.  With
    # N(0, 1) entries instead, N sigma_min >= x is sigma_min >= x / sqrt(N).
    d, e = _gaussian_bidiagonal(g, count, n, 1)
    return (~_sigma_min_below(d, e, np.asarray(tail_grid) / math.sqrt(n)),)


def run_min_singular_cdf(
    dims=(2, 4, 8),
    trials: int = 20000,
    master_seed: int = 0,
    workers: int = 1,
    grid=DEFAULT_CDF_GRID,
    tail_grid=DEFAULT_TAIL_GRID,
) -> ResultTable:
    """Empirical minimum-singular-value CDFs, plus the scaled tail law.

    Produces ``statistic == "cdf_sigma_min"`` rows with the empirical CDF
    ``P[sigma_min < x]`` of the smallest singular value of normalized
    channels for each ``N`` in ``dims``, and ``statistic ==
    "tail_scaled_sigma_min"`` rows for the largest ``N``: the empirical
    ``P[N * sigma_min >= x]`` over unnormalized real Gaussian matrices
    (entry variance ``1/N``) next to the asymptotic reference
    ``exp(-x - x^2/2)``.  Grid points may be in any order and must not be
    NaN.
    """
    dims, trials, master_seed, workers = _check_run(dims, trials, master_seed, workers)
    grid = tuple(float(x) for x in grid)
    tail_grid = tuple(float(x) for x in tail_grid)
    if not grid or not tail_grid:
        raise ValueError("grid and tail_grid must be nonempty")
    if any(math.isnan(x) for x in grid + tail_grid):
        raise ValueError("grid and tail_grid must not contain NaN")
    sweeps = [("cdf_sigma_min", n, grid, _cdf_block, _TAG_CDF, None) for n in dims]
    sweeps.append(
        ("tail_scaled_sigma_min", max(dims), tail_grid, _edelman_block, _TAG_EDELMAN, edelman_tail)
    )
    rows = []
    for statistic, n, xs, kernel, tag, reference in sweeps:
        [(count, hits, _)] = _reduce(kernel, master_seed, (tag, n), (n, xs), trials, workers)
        for x, k in zip(xs, hits):
            p = k / count
            rows.append(
                {
                    "statistic": statistic,
                    "n": n,
                    "x": x,
                    "value": p,
                    "se": math.sqrt(p * (1.0 - p) / count),
                    "reference": reference(x) if reference else None,
                }
            )
    return _result_table("cdf", rows, master_seed, trials, "none", dims=list(dims))


# ---------------------------------------------------------------------------
# paired ZF/MMSE BER sweep
# ---------------------------------------------------------------------------


def _transmit(g, n, variance, count):
    """``(bits, symbols, noise)`` of ``count`` QPSK transmissions over ``n`` antennas.

    Draws the bits, then CN(0, ``variance``) noise, in that order.
    """
    bits = g.integers(0, 2, size=(count, 2 * n))
    return bits, qpsk_modulate(bits), _cn_noise((count, n), variance, g)


def _ber_block(g, n, variance, floor, count):
    if floor > 0.0:
        # H = diag(s) V^H: CN noise is rotation invariant, so H's left
        # Haar factor does not change the law of the errors.
        s = _floored_spectra(g, count, n, floor, DEFAULT_MAX_ATTEMPTS)
    k_zf, k_mmse = np.empty((2, count), dtype=np.intp)
    for c in _chunks(count, n, _DRAW_ELEMENTS):
        # The channels, or with a floor the Gaussian draws that become V.
        z = complex_gaussian((c.stop - c.start, n, n), g)
        bits, x, noise = _transmit(g, n, variance, c.stop - c.start)
        # Both detectors see the identical (H, x, n) triple per trial.
        if floor > 0.0:
            # W_zf = V diag(1 / s) and W_mmse = V diag(s / (s^2 + v)).
            vc, sc = _phase_fixed_q(z), s[c]
            r = sc * np.einsum("bij,bi->bj", vc.conj(), x) + noise
            ys = [np.einsum("bij,bj->bi", vc, r * f) for f in (1.0 / sc, sc / (sc * sc + variance))]
        else:
            hc = _normalized(z)
            r = np.einsum("bij,bj->bi", hc, x) + noise
            ys = [np.einsum("bij,bj->bi", w, r) for w in _filters(hc, 0.0, variance)]
        for k, y in zip((k_zf, k_mmse), ys):
            k[c] = np.count_nonzero(qpsk_slice(y) != bits, axis=1)
    return k_zf, k_mmse, k_zf - k_mmse


#: Rows whose accumulated bit errors fall below this count are flagged.
LOW_CONFIDENCE_ERRORS = 100


def run_ber_sweep(
    n: int = 4,
    snr_grid_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0),
    sigma_min_floor: float = 0.0,
    trials: int = 200000,
    master_seed: int = 0,
    workers: int = 1,
) -> ResultTable:
    """Paired ZF/MMSE QPSK bit error rates over floored channel realizations.

    Every trial uses a fresh channel, fresh bits, and fresh noise; both
    detectors process the identical triple, so the per-trial error-count
    difference is a paired statistic and its standard error
    (``se_paired_diff``) is far smaller than for independent runs.  Rows
    with fewer than ``LOW_CONFIDENCE_ERRORS`` accumulated bit errors carry
    ``low_confidence = 1``.  A positive ``sigma_min_floor`` uses the rejection
    kernel and checks of :func:`lindet.channel.sample_floored` with its
    default budget; the checks run before any block.
    """
    (n,), trials, master_seed, workers = _check_run((n,), trials, master_seed, workers)
    snr_grid_db = tuple(float(s) for s in snr_grid_db)
    if not snr_grid_db:
        raise ValueError("snr_grid_db must be nonempty")
    floor = _check_floor(n, sigma_min_floor)
    variances = [noise_var_from_snr(snr_db, n).variance for snr_db in snr_grid_db]
    rows = []
    bits_per_trial = 2 * n
    for si, (snr_db, variance) in enumerate(zip(snr_grid_db, variances)):
        zf, mmse, diff = _reduce(
            _ber_block, master_seed, (_TAG_BER, si), (n, variance, floor), trials, workers,
        )
        total_bits = zf[0] * bits_per_trial
        se_paired = _mean_se(*diff)[1] / bits_per_trial
        for detector, column in (("zf", zf), ("mmse", mmse)):
            errors = column[1]
            rows.append(
                {
                    "detector": detector,
                    "snr_db": snr_db,
                    "ber": errors / total_bits,
                    "bit_errors": errors,
                    "bits": total_bits,
                    "se_ber": _mean_se(*column)[1] / bits_per_trial,
                    "se_paired_diff": se_paired,
                    "low_confidence": int(errors < LOW_CONFIDENCE_ERRORS),
                }
            )
    return _result_table(
        "ber", rows, master_seed, trials, CONVENTION_RECEIVE,
        n=n, sigma_min_floor=floor, snr_grid_db=list(snr_grid_db),
    )


# ---------------------------------------------------------------------------
# distortion-SNR oracle
# ---------------------------------------------------------------------------


def _distortion_block(g, n, h, w, variance, count):
    """Per-trial distortion ``||W (H x + n) - x||^2`` on one channel ``h`` and filter ``w``."""
    _, x, noise = _transmit(g, n, variance, count)
    err = ((x @ h.T + noise) @ w.T - x).view(np.float64)
    return ((err * err) @ np.ones(2 * n),)


def empirical_distortion_snr(
    h,
    w: FilterMatrix,
    noise: NoiseModel,
    trials: int,
    rng: RngStream,
) -> float:
    """Monte Carlo distortion SNR: transmit energy over filtered-error energy.

    Pushes random QPSK vectors ``x`` and noise ``n`` through the channel and
    the given filter and returns ``N * trials / sum ||W (H x + n) - x||^2``
    (QPSK symbols have unit energy), an oracle independent of the closed
    forms; zero distortion (noiseless ZF) gives ``math.inf``.  Block ``i``
    draws from stream ``(rng.master_seed, rng.key + (i,))``.
    """
    m = linalg._require_square(h, "channel")
    if w.matrix.shape[1] != m.shape[0]:
        raise DimensionError(
            f"filter expects length {w.matrix.shape[1]}, channel outputs "
            f"length {m.shape[0]}"
        )
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = m.shape[0]
    [(count, distortion, _)] = _reduce(
        _distortion_block, rng.master_seed, rng.key, (n, m, w.matrix, noise.variance), trials, 1
    )
    return math.inf if distortion == 0.0 else n * count / distortion


# ---------------------------------------------------------------------------
# filtering-matrix condition-number ratio sweep
# ---------------------------------------------------------------------------


def run_cond_ratio_sweep(
    n: int = 4,
    cond_target: float = 15.0,
    sigma_min_grid=(0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0),
    snr_db: float = 10.0,
    trials: int = 200,
    master_seed: int = 0,
    workers: int = 1,
    interior: str = "top",
) -> ResultTable:
    """Exact vs approximate cond(W_mmse)/cond(W_zf) on a prescribed spectrum.

    Channels have prescribed condition number ``cond_target`` and smallest
    singular value swept over ``sigma_min_grid``; the noise variance follows
    the ``1 / variance`` dB convention of this experiment.  Every column is
    a closed form of the prescribed spectrum, which ``U`` and ``V`` do not
    enter, so the sweep draws nothing: ``trials``, ``master_seed`` and
    ``workers`` are checked like every runner's and ``trials`` and
    ``master_seed`` are stamped on the table, but they change no value.
    """
    (n,), trials, master_seed, workers = _check_run((n,), trials, master_seed, workers)
    cond_target, sigma_min_grid = _check_spectrum(cond_target, sigma_min_grid)
    noise = noise_var_from_inverse_snr(snr_db)
    rows = []
    for sigma_min in sigma_min_grid:
        spectrum = _spectrum_profile(n, cond_target, sigma_min, interior)
        cond_zf, cond_mmse = _spectral_conds(spectrum, 0.0, noise.variance).tolist()
        rows.append(
            {
                "sigma_min": sigma_min,
                "mean_exact_ratio": cond_mmse / cond_zf,
                "approx_ratio": cond_ratio_approx(cond_target * sigma_min, sigma_min, noise),
                "mean_cond_w_zf": cond_zf,
                "mean_cond_w_mmse": cond_mmse,
            }
        )
    return _result_table(
        "condratio", rows, master_seed, trials, CONVENTION_INVERSE,
        n=n, cond_target=cond_target, snr_db=float(snr_db), interior=interior,
    )
