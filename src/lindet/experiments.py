"""Seeded, parallelizable Monte Carlo experiment drivers.

Each runner produces a :class:`ResultTable` of tagged rows with means and
standard errors.  Trials are partitioned into fixed-size blocks; every
block derives its own random substream from ``(master_seed, experiment
tag, grid-point index, block index)`` and blocks are reduced in a fixed
order with exact summation, so results are bit-identical regardless of the
worker count and of how blocks are scheduled.  This module holds only
that scheduling and reduction; the maths comes from :mod:`lindet.channel`,
:mod:`lindet.detection` and :mod:`lindet.analysis`, called on stacks.

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
from .analysis import _mmse_snr_terms, _zf_snr, cond_ratio_approx, edelman_tail
from .channel import (
    DEFAULT_MAX_ATTEMPTS,
    NoiseModel,
    RngStream,
    _cn_noise,
    _spectrum_profile,
    _synthesized_stack,
    complex_gaussian,
)
from .detection import _filter_pair, qpsk_modulate, qpsk_slice
from .exceptions import DimensionError, SamplingExhaustedError

_BLOCK = 8192

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
    is ``N / variance``, so ``variance = N / 10**(snr_db / 10)``.
    """
    if n < 1:
        raise DimensionError(f"dimension must be >= 1, got {n}")
    return NoiseModel(n / 10.0 ** (float(snr_db) / 10.0))


def noise_var_from_inverse_snr(snr_db: float) -> NoiseModel:
    """Noise variance under the ``1 / variance`` dB convention."""
    return NoiseModel(10.0 ** (-float(snr_db) / 10.0))


# ---------------------------------------------------------------------------
# block scheduling and reduction
# ---------------------------------------------------------------------------


def _block_sizes(trials: int, block: int = _BLOCK) -> list[int]:
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


def _run_block(task):
    kernel, seed, key, args, count = task
    return kernel(RngStream(seed, key).generator(), *args, count)


def _reduce(kernel, seed: int, key_prefix: tuple, args: tuple, trials: int, workers: int) -> list:
    """Column totals of ``kernel``'s partials over the blocks of one grid point.

    Block ``i`` calls ``kernel(generator, *args, count)`` with the generator
    of stream ``(seed, key_prefix + (i,))`` and returns a tuple of partial
    columns.  Integer and count-array columns add exactly and float columns
    go through ``math.fsum``, so the totals do not depend on ``workers``.
    """
    tasks = [
        (kernel, seed, key_prefix + (i,), args, size)
        for i, size in enumerate(_block_sizes(trials))
    ]
    parts = _run_blocks(_run_block, tasks, workers)
    return [math.fsum(col) if isinstance(col[0], float) else sum(col) for col in zip(*parts)]


def _mean_se(total: float, total_sq: float, count: int) -> tuple[float, float]:
    if count < 1:
        return math.nan, math.nan
    mean = total / count
    if count == 1:
        return mean, math.nan
    var = max(0.0, (total_sq - count * mean * mean) / (count - 1))
    return mean, math.sqrt(var / count)


def _check_run(dims, trials: int, master_seed: int, workers: int) -> tuple[int, ...]:
    """The checks every runner shares; returns ``dims`` as integers."""
    dims = tuple(int(n) for n in dims)
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
        metadata={**stamp, "snr_convention": convention, "version": __version__, **metadata},
    )


def _normalized_block(g: np.random.Generator, count: int, n: int) -> np.ndarray:
    raw = complex_gaussian((count, n, n), g)
    fro = np.linalg.norm(raw, axis=(1, 2))
    return raw * (n / fro)[:, None, None]


# ---------------------------------------------------------------------------
# minimum singular value and condition number statistics
# ---------------------------------------------------------------------------


def _table1_block(g, n, count):
    s = np.linalg.svd(_normalized_block(g, count, n), compute_uv=False)
    smin = s[:, -1]
    cond = s[:, 0] / s[:, -1]
    return (
        count,
        float(np.sum(smin)),
        float(np.sum(smin * smin)),
        float(np.sum(cond)),
        float(np.sum(cond * cond)),
    )


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
        count, sum_s, sum_s2, sum_c, sum_c2 = _reduce(
            _table1_block, master_seed, (_TAG_TABLE1, n), (n,), trials, workers
        )
        mean_s, se_s = _mean_se(sum_s, sum_s2, count)
        mean_c, se_c = _mean_se(sum_c, sum_c2, count)
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
    s = np.linalg.svd(_normalized_block(g, count, n), compute_uv=False)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        numerator, denominator = _mmse_snr_terms(s, variance)
        gain = 10.0 * np.log10(numerator / denominator / _zf_snr(s, variance))
    kept = gain[np.isfinite(gain)]
    return (kept.size, float(np.sum(kept)), float(np.sum(kept * kept)), count - kept.size)


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
    rows = []
    for n in dims:
        for si, snr_db in enumerate(snr_grid_db):
            variance = noise_var_from_snr(snr_db, n).variance
            kept, sum_g, sum_g2, excluded = _reduce(
                _gain_block, master_seed, (_TAG_GAIN, n, si), (n, variance), trials, workers
            )
            mean_g, se_g = _mean_se(sum_g, sum_g2, kept)
            rows.append(
                {
                    "n": n,
                    "snr_db": snr_db,
                    "mean_gain_db": mean_g,
                    "se_gain_db": se_g,
                    "n_excluded": excluded,
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
    smin = np.linalg.svd(_normalized_block(g, count, n), compute_uv=False)[:, -1]
    return (count, np.count_nonzero(smin[:, None] <= np.asarray(grid)[None, :], axis=0))


def _edelman_block(g, n, tail_grid, count):
    # Real Gaussian entries with variance 1/n: the ensemble whose scaled
    # minimum singular value has the exp(-x - x^2/2) limit law.
    raw = g.standard_normal((count, n, n)) / math.sqrt(n)
    scaled = n * np.linalg.svd(raw, compute_uv=False)[:, -1]
    return (count, np.count_nonzero(scaled[:, None] >= np.asarray(tail_grid)[None, :], axis=0))


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
        count, hits = _reduce(kernel, master_seed, (tag, n), (n, xs), trials, workers)
        for x, k in zip(xs, hits):
            p = float(k / count)
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
    h = _normalized_block(g, count, n)
    if floor > 0.0:
        attempts = 1
        while True:
            smin = np.linalg.svd(h, compute_uv=False)[:, -1]
            bad = smin < floor
            n_bad = int(np.count_nonzero(bad))
            if n_bad == 0:
                break
            attempts += 1
            if attempts > max_attempts:
                raise SamplingExhaustedError(
                    f"no draw with sigma_min >= {floor} for {n_bad} of {count} "
                    f"slots within {max_attempts} attempts (n={n})",
                    attempts=max_attempts,
                )
            h[bad] = _normalized_block(g, n_bad, n)
    bits = g.integers(0, 2, size=(count, 2 * n))
    x = qpsk_modulate(bits)
    noise = _cn_noise((count, n), variance, g)
    # Both detectors see the identical (H, x, n) triple per trial.
    r = np.einsum("bij,bj->bi", h, x) + noise
    w_zf, w_mmse = _filter_pair(h, variance)
    k_zf = np.count_nonzero(qpsk_slice(np.einsum("bij,bj->bi", w_zf, r)) != bits, axis=1)
    k_mmse = np.count_nonzero(qpsk_slice(np.einsum("bij,bj->bi", w_mmse, r)) != bits, axis=1)
    diff = k_zf - k_mmse
    return (
        count,
        int(np.sum(k_zf)),
        int(np.sum(k_zf * k_zf)),
        int(np.sum(k_mmse)),
        int(np.sum(k_mmse * k_mmse)),
        int(np.sum(diff * diff)),
    )


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
    ``low_confidence = 1``.
    """
    _check_run((n,), trials, master_seed, workers)
    floor = float(sigma_min_floor)
    if floor < 0:
        raise ValueError("sigma_min_floor must be >= 0")
    snr_grid_db = tuple(float(s) for s in snr_grid_db)
    if not snr_grid_db:
        raise ValueError("snr_grid_db must be nonempty")
    if floor >= math.sqrt(n):
        # sum(s_i^2) = N^2 forces sigma_N <= sqrt(N); no draw can clear the floor.
        raise SamplingExhaustedError(
            f"sigma_min floor {floor} is unattainable: normalized {n}x{n} channels "
            f"have sigma_min <= sqrt({n}) = {math.sqrt(n):.6g}",
            attempts=0,
        )
    rows = []
    bits_per_trial = 2 * n
    for si, snr_db in enumerate(snr_grid_db):
        variance = noise_var_from_snr(snr_db, n).variance
        count, sum_z, sumsq_z, sum_m, sumsq_m, sumsq_d = _reduce(
            _ber_block, master_seed, (_TAG_BER, si), (n, variance, floor, max_attempts),
            trials, workers,
        )
        total_bits = count * bits_per_trial
        _, se_kd = _mean_se(float(sum_z - sum_m), float(sumsq_d), count)
        se_paired = se_kd / bits_per_trial if count > 1 else math.nan
        for detector, errors, sumsq in (("zf", sum_z, sumsq_z), ("mmse", sum_m, sumsq_m)):
            _, se_k = _mean_se(float(errors), float(sumsq), count)
            rows.append(
                {
                    "detector": detector,
                    "snr_db": snr_db,
                    "ber": errors / total_bits,
                    "bit_errors": errors,
                    "bits": total_bits,
                    "se_ber": se_k / bits_per_trial if count > 1 else math.nan,
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
    w_zf, w_mmse = _filter_pair(_synthesized_stack(spectrum, count, g), variance)
    sv_zf = np.linalg.svd(w_zf, compute_uv=False)
    sv_mmse = np.linalg.svd(w_mmse, compute_uv=False)
    cond_zf = sv_zf[:, 0] / sv_zf[:, -1]
    cond_mmse = sv_mmse[:, 0] / sv_mmse[:, -1]
    ratio = cond_mmse / cond_zf
    return (
        count,
        float(np.sum(ratio)),
        float(np.sum(ratio * ratio)),
        float(np.sum(cond_zf)),
        float(np.sum(cond_mmse)),
    )


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
    _check_run((n,), trials, master_seed, workers)
    cond_target = float(cond_target)
    if cond_target < 1:
        raise ValueError("cond_target must be >= 1")
    sigma_min_grid = tuple(float(s) for s in sigma_min_grid)
    if not sigma_min_grid:
        raise ValueError("sigma_min_grid must be nonempty")
    if any(s <= 0 for s in sigma_min_grid):
        raise ValueError("sigma_min_grid values must be > 0")
    variance = noise_var_from_inverse_snr(snr_db).variance
    noise = NoiseModel(variance)
    rows = []
    for gi, sigma_min in enumerate(sigma_min_grid):
        spectrum = _spectrum_profile(n, cond_target, sigma_min, interior)
        count, sum_r, sum_r2, sum_cz, sum_cm = _reduce(
            _cond_ratio_block, master_seed, (_TAG_CONDRATIO, gi), (n, spectrum, variance),
            trials, workers,
        )
        mean_r, se_r = _mean_se(sum_r, sum_r2, count)
        rows.append(
            {
                "sigma_min": sigma_min,
                "mean_exact_ratio": mean_r,
                "se_exact_ratio": se_r,
                "approx_ratio": cond_ratio_approx(cond_target * sigma_min, sigma_min, noise),
                "mean_cond_w_zf": sum_cz / count,
                "mean_cond_w_mmse": sum_cm / count,
            }
        )
    return _result_table(
        "condratio", rows, master_seed, trials, CONVENTION_INVERSE,
        n=n, cond_target=cond_target, snr_db=float(snr_db), interior=interior,
    )
