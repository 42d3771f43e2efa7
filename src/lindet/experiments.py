"""Seeded, parallelizable Monte Carlo experiment drivers.

Each runner produces a :class:`ResultTable` of tagged rows with means and
standard errors.  Trials are partitioned into blocks whose size depends
only on the matrix dimension N: ``min(8192, BLOCK_ELEMENTS // N**2)``
matrices, and at least one, so no block holds much more than
``BLOCK_ELEMENTS`` matrix elements.  Every block derives its own random
substream from ``(master_seed, experiment tag, grid-point index, block
index)``.  A block kernel returns only per-trial columns, trials on axis
0; each block reduces every column to its count, total and total of
squares, and the blocks merge in a fixed order with exact summation, so
results are bit-identical regardless of the worker count and of how blocks
are scheduled.  Runners derive means and standard errors from those
triples alone.  This module holds only that scheduling and reduction; the
maths comes from :mod:`lindet.channel`, :mod:`lindet.detection` and
:mod:`lindet.analysis`, called on stacks.

Stream layout 2 (``STREAM_LAYOUT``, recorded in every table): the
table1, gain and cdf runners read only singular values, so their blocks
draw spectra from the bidiagonal Gaussian model
(:func:`lindet.channel._gaussian_spectra`); the BER and condition-ratio
runners draw channel matrices.

Two receive-SNR conventions coexist and are recorded per table:

* ``"receive_n_over_sigma2"`` - BER and gain sweeps define receive SNR as
  ``N / noise_variance``, which matches the per-antenna SNR under the
  squared-Frobenius-norm-equals-N^2 channel normalization.
* ``"inverse_sigma2"`` - the condition-ratio sweep defines SNR as
  ``1 / noise_variance``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .analysis import (
    _filter_conds,
    _gain_db,
    _mmse_snr_terms,
    _zf_snr,
    cond_ratio_approx,
    edelman_tail,
)
from .channel import (
    DEFAULT_MAX_ATTEMPTS,
    NoiseModel,
    RngStream,
    _check_floor,
    _check_spectrum,
    _cn_noise,
    _floored_stack,
    _gaussian_spectra,
    _normalized,
    _spectrum_profile,
    _synthesized_stack,
    complex_gaussian,
)
from .detection import _filters, qpsk_modulate, qpsk_slice
from .exceptions import DimensionError

_BLOCK = 8192

#: Most matrix elements a block may hold: blocks of ``N x N`` draws have
#: ``min(8192, BLOCK_ELEMENTS // N**2)`` matrices, and at least one.
BLOCK_ELEMENTS = 2**22

#: Version of the map from a stream address to the draws it feeds; it
#: changes whenever a runner's output bytes change on purpose.
STREAM_LAYOUT = 2

# Stable experiment tags used as stream-key components.
_TAG_TABLE1 = 1
_TAG_GAIN = 2
_TAG_CDF = 3
_TAG_EDELMAN = 4
_TAG_BER = 5
_TAG_CONDRATIO = 6

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


def _run_blocks(worker, tasks: list, workers: int) -> list:
    """Run block tasks, preserving task order in the returned partials.

    A pool never has more processes than tasks or than CPUs this process
    may run on.
    """
    if workers <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
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


def _check_run(dims, trials: int, master_seed: int, workers: int) -> tuple[int, ...]:
    """The checks every runner shares; returns ``dims`` as integers."""
    given = tuple(dims)
    if not all(float(n).is_integer() for n in given):
        raise ValueError(f"dims must be integers, got {given}")
    dims = tuple(int(n) for n in given)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not dims or any(n < 2 for n in dims):
        raise ValueError(f"dims must be nonempty and all >= 2, got {dims}")
    if master_seed < 0:
        raise ValueError("master_seed must be nonnegative")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return dims


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
    s = _gaussian_spectra(g, count, n, 2)
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
    dims = _check_run(dims, trials, master_seed, workers)
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
    s = _gaussian_spectra(g, count, n, 2)
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
    dims = _check_run(dims, trials, master_seed, workers)
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
    smin = _gaussian_spectra(g, count, n, 2)[:, -1]
    return (smin[:, None] <= np.asarray(grid)[None, :],)


def _edelman_block(g, n, tail_grid, count):
    # Real Gaussian entries with variance 1/n: the ensemble whose scaled
    # minimum singular value has the exp(-x - x^2/2) limit law.
    scaled = math.sqrt(n) * _gaussian_spectra(g, count, n, 1, normalized=False)[:, -1]
    return (scaled[:, None] >= np.asarray(tail_grid)[None, :],)


def run_min_singular_cdf(
    dims=(2, 4, 8),
    trials: int = 20000,
    master_seed: int = 0,
    workers: int = 1,
    grid=DEFAULT_CDF_GRID,
    tail_grid=DEFAULT_TAIL_GRID,
) -> ResultTable:
    """Empirical minimum-singular-value CDFs, plus the scaled tail law.

    Produces ``statistic == "cdf_sigma_min"`` rows with the empirical CDF of
    the smallest singular value of normalized channels for each ``N`` in
    ``dims``, and ``statistic == "tail_scaled_sigma_min"`` rows for the
    largest ``N``: the empirical ``P[N * sigma_min >= x]`` over unnormalized
    real Gaussian matrices (entry variance ``1/N``) next to the asymptotic
    reference ``exp(-x - x^2/2)``.
    """
    dims = _check_run(dims, trials, master_seed, workers)
    grid = tuple(float(x) for x in grid)
    tail_grid = tuple(float(x) for x in tail_grid)
    if not grid or not tail_grid:
        raise ValueError("grid and tail_grid must be nonempty")
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


def _ber_block(g, n, variance, floor, max_attempts, count):
    if floor > 0.0:
        h = _floored_stack(g, count, n, floor, max_attempts)[0]
    else:
        h = _normalized(complex_gaussian((count, n, n), g))
    bits = g.integers(0, 2, size=(count, 2 * n))
    x = qpsk_modulate(bits)
    noise = _cn_noise((count, n), variance, g)
    # Both detectors see the identical (H, x, n) triple per trial.
    r = np.einsum("bij,bj->bi", h, x) + noise
    w_zf, w_mmse = _filters(h, 0.0, variance)
    k_zf = np.count_nonzero(qpsk_slice(np.einsum("bij,bj->bi", w_zf, r)) != bits, axis=1)
    k_mmse = np.count_nonzero(qpsk_slice(np.einsum("bij,bj->bi", w_mmse, r)) != bits, axis=1)
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
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> ResultTable:
    """Paired ZF/MMSE QPSK bit error rates over floored channel realizations.

    Every trial uses a fresh channel, fresh bits, and fresh noise; both
    detectors process the identical triple, so the per-trial error-count
    difference is a paired statistic and its standard error
    (``se_paired_diff``) is far smaller than for independent runs.  Rows
    with fewer than ``LOW_CONFIDENCE_ERRORS`` accumulated bit errors carry
    ``low_confidence = 1``.  A positive ``sigma_min_floor`` uses the rejection
    kernel, checks and per-trial ``max_attempts`` of
    :func:`lindet.channel.sample_floored`; the checks run before any block.
    """
    (n,) = _check_run((n,), trials, master_seed, workers)
    snr_grid_db = tuple(float(s) for s in snr_grid_db)
    if not snr_grid_db:
        raise ValueError("snr_grid_db must be nonempty")
    floor = _check_floor(n, sigma_min_floor, max_attempts)
    variances = [noise_var_from_snr(snr_db, n).variance for snr_db in snr_grid_db]
    rows = []
    bits_per_trial = 2 * n
    for si, (snr_db, variance) in enumerate(zip(snr_grid_db, variances)):
        zf, mmse, diff = _reduce(
            _ber_block, master_seed, (_TAG_BER, si), (n, variance, floor, max_attempts),
            trials, workers,
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
# filtering-matrix condition-number ratio sweep
# ---------------------------------------------------------------------------


def _cond_ratio_block(g, n, spectrum, variance, count):
    cond_zf, cond_mmse = _filter_conds(_synthesized_stack(spectrum, count, g), variance)
    return cond_mmse / cond_zf, cond_zf, cond_mmse


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
    """Exact vs approximate cond(W_mmse)/cond(W_zf) over synthesized channels.

    Channels have prescribed condition number ``cond_target`` and smallest
    singular value swept over ``sigma_min_grid``; the noise variance follows
    the ``1 / variance`` dB convention of this experiment.  The approximate
    ratio depends only on the prescribed spectrum endpoints and is reported
    alongside the Monte Carlo mean of the exact ratio.
    """
    (n,) = _check_run((n,), trials, master_seed, workers)
    cond_target, sigma_min_grid = _check_spectrum(cond_target, sigma_min_grid)
    noise = noise_var_from_inverse_snr(snr_db)
    rows = []
    for gi, sigma_min in enumerate(sigma_min_grid):
        spectrum = _spectrum_profile(n, cond_target, sigma_min, interior)
        ratio, cond_zf, cond_mmse = _reduce(
            _cond_ratio_block, master_seed, (_TAG_CONDRATIO, gi), (n, spectrum, noise.variance),
            trials, workers,
        )
        mean_r, se_r = _mean_se(*ratio)
        rows.append(
            {
                "sigma_min": sigma_min,
                "mean_exact_ratio": mean_r,
                "se_exact_ratio": se_r,
                "approx_ratio": cond_ratio_approx(cond_target * sigma_min, sigma_min, noise),
                "mean_cond_w_zf": cond_zf[1] / cond_zf[0],
                "mean_cond_w_mmse": cond_mmse[1] / cond_mmse[0],
            }
        )
    return _result_table(
        "condratio", rows, master_seed, trials, CONVENTION_INVERSE,
        n=n, cond_target=cond_target, snr_db=float(snr_db), interior=interior,
    )
