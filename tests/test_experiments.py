import itertools
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lindet import analysis, channel, detection, experiments
from lindet.channel import NoiseModel, RngStream
from lindet.exceptions import DimensionError, SamplingExhaustedError
from lindet.experiments import (
    noise_var_from_inverse_snr,
    noise_var_from_snr,
    run_ber_sweep,
    run_cond_ratio_sweep,
    run_gain_sweep,
    run_min_singular_cdf,
    run_table1,
)


@pytest.fixture(scope="module")
def table1_table():
    return run_table1([2, 4], trials=3000, master_seed=42)


@pytest.fixture(scope="module")
def cdf_table():
    return run_min_singular_cdf([2, 4], trials=4000, master_seed=9)


@pytest.fixture(scope="module")
def ber_table():
    return run_ber_sweep(4, [8.0, 16.0, 24.0], trials=30000, master_seed=7)


@pytest.fixture(scope="module")
def condratio_table():
    return run_cond_ratio_sweep(
        4, 15.0, [0.05, 0.1, 0.3, 1.0], snr_db=10.0, trials=64, master_seed=3
    )


class TestNoiseVarFromSnr:
    def test_zero_db(self):
        assert noise_var_from_snr(0.0, 20).variance == pytest.approx(20.0)

    def test_25db_n4(self):
        assert noise_var_from_snr(25.0, 4).variance == pytest.approx(
            0.012649110640673516, rel=1e-12
        )

    def test_50db_n4_order_of_magnitude(self):
        # N/10^5 = 4e-05: same order as the 2e-05 quoted alongside 50 dB
        v = noise_var_from_snr(50.0, 4).variance
        assert v == pytest.approx(4e-05, rel=1e-12)

    def test_inverse_convention(self):
        assert noise_var_from_inverse_snr(10.0).variance == pytest.approx(0.1)

    def test_rejects_bad_dim(self):
        with pytest.raises(DimensionError):
            noise_var_from_snr(0.0, 0)

    def test_variances_are_the_closed_forms(self):
        for snr in (-300.0, -12.5, 0.0, 3.0, 25.0, 49.99, 300.0, 3080.0, math.inf):
            for n in (1, 4, 20):
                assert noise_var_from_snr(snr, n).variance == n / 10.0 ** (snr / 10.0)
            assert noise_var_from_inverse_snr(snr).variance == 10.0 ** (-snr / 10.0)

    @pytest.mark.parametrize("snr", [4000.0, -4000.0, -math.inf, math.nan])
    def test_out_of_range_snr_is_a_value_error(self, snr):
        with pytest.raises(ValueError):
            noise_var_from_snr(snr, 4)

    @pytest.mark.parametrize("snr", [-4000.0, -math.inf, math.nan])
    def test_out_of_range_inverse_snr_is_a_value_error(self, snr):
        with pytest.raises(ValueError):
            noise_var_from_inverse_snr(snr)


_ALL_RUNNERS = [
    run_table1, run_gain_sweep, run_min_singular_cdf, run_ber_sweep, run_cond_ratio_sweep
]
_DIMS_RUNNERS = _ALL_RUNNERS[:3]


def _name(runner):
    return runner.__name__


class TestRunnerChecks:
    """Each runner rejects bad input with ValueError before any block runs."""

    @pytest.fixture(autouse=True)
    def no_blocks(self, monkeypatch):
        def run_blocks(*args):
            raise AssertionError("a block ran")

        monkeypatch.setattr(experiments, "_run_blocks", run_blocks)

    @pytest.mark.parametrize("runner", _ALL_RUNNERS, ids=_name)
    def test_rejects_small_dims(self, runner):
        # the error names the parameter: n for ber and condratio, as the CLI flag
        name = "dims" if runner in _DIMS_RUNNERS else "n"
        small = {name: (4, 1) if name == "dims" else 1}
        with pytest.raises(DimensionError, match=f"^{name} must be >= 2, got 1"):
            runner(**small, trials=1)

    @pytest.mark.parametrize("value", [4.5, math.inf, "2", True])
    @pytest.mark.parametrize("runner", _ALL_RUNNERS, ids=_name)
    def test_rejects_non_integral_dims(self, runner, value):
        name = "dims" if runner in _DIMS_RUNNERS else "n"
        bad = {name: (4, value) if name == "dims" else value}
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            runner(**bad, trials=1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda n: run_table1([2, n], trials=1),
            lambda n: run_gain_sweep([n], [10.0], trials=1),
            lambda n: run_ber_sweep(n, [10.0], trials=1),
            lambda n: run_ber_sweep(n, [10.0], sigma_min_floor=0.3, trials=1),
        ],
        ids=["table1", "gain", "ber", "ber-floored"],
    )
    def test_dense_runners_bound_n_by_the_block_budget(self, call):
        # N = 2048 fills BLOCK_ELEMENTS = 2**22 with one matrix and reaches
        # the (patched) blocks; N = 2049 fails first, allocating nothing.
        with pytest.raises(AssertionError, match="a block ran"):
            call(2048)
        with pytest.raises(DimensionError, match="must be <= 2048, got 2049"):
            call(2049)

    def test_runners_without_dense_matrices_take_any_n(self):
        # cdf holds O(N) floats a trial, and condratio only closed forms
        with pytest.raises(AssertionError, match="a block ran"):
            run_min_singular_cdf([4, 10**6], trials=1)
        assert len(run_cond_ratio_sweep(10**5, 15.0, [0.1], trials=1).rows) == 1

    @pytest.mark.parametrize("runner", _DIMS_RUNNERS, ids=_name)
    def test_rejects_empty_dims(self, runner):
        with pytest.raises(ValueError):
            runner((), trials=1)

    @pytest.mark.parametrize("runner", _ALL_RUNNERS, ids=_name)
    def test_rejects_zero_trials(self, runner):
        with pytest.raises(ValueError):
            runner(trials=0)

    @pytest.mark.parametrize("runner", _ALL_RUNNERS, ids=_name)
    def test_rejects_bad_workers(self, runner):
        with pytest.raises(ValueError):
            runner(trials=1, workers=0)

    @pytest.mark.parametrize("runner", _ALL_RUNNERS, ids=_name)
    def test_rejects_non_integral_trials(self, runner):
        with pytest.raises(ValueError, match="trials must be an integer"):
            runner(trials=2.5)

    @pytest.mark.parametrize("runner", _ALL_RUNNERS, ids=_name)
    def test_rejects_non_integral_seed(self, runner):
        with pytest.raises(ValueError, match="master_seed must be an integer"):
            runner(trials=1, master_seed=0.5)

    @pytest.mark.parametrize("runner", _ALL_RUNNERS, ids=_name)
    def test_rejects_non_integral_workers(self, runner):
        with pytest.raises(ValueError, match="workers must be an integer"):
            runner(trials=1, workers=1.5)

    @pytest.mark.parametrize("value", [True, np.True_, "100"], ids=["True", "np.True_", "str"])
    @pytest.mark.parametrize("name", ["trials", "master_seed", "workers"])
    @pytest.mark.parametrize("runner", _ALL_RUNNERS, ids=_name)
    def test_rejects_bools_and_strings_as_counts(self, runner, name, value):
        counts = {"trials": 1, "master_seed": 0, "workers": 1, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            runner(**counts)

    @pytest.mark.parametrize("runner", _ALL_RUNNERS, ids=_name)
    def test_rejects_negative_seed(self, runner):
        with pytest.raises(ValueError):
            runner(trials=1, master_seed=-1)

    def test_ber_rejects_negative_floor(self):
        with pytest.raises(ValueError):
            run_ber_sweep(4, [10.0], sigma_min_floor=-0.1, trials=1)

    @pytest.mark.parametrize("floor", [math.nan, math.inf])
    def test_ber_rejects_non_finite_floor(self, floor):
        with pytest.raises(ValueError):
            run_ber_sweep(4, [10.0], sigma_min_floor=floor, trials=1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: run_ber_sweep(4, [0.0, math.nan], trials=1),
            lambda: run_ber_sweep(4, [0.0, 4000.0], trials=1),
            lambda: run_gain_sweep([2, 4], [0.0, -4000.0], trials=1),
            lambda: run_gain_sweep([2], [0.0, -math.inf], trials=1),
            lambda: run_cond_ratio_sweep(4, 15.0, [0.1], snr_db=-4000.0, trials=1),
        ],
        ids=["ber-nan", "ber-overflow", "gain-underflow", "gain-minus-inf", "condratio"],
    )
    def test_rejects_snr_without_a_noise_variance(self, call):
        with pytest.raises(ValueError):
            call()

    @pytest.mark.parametrize(
        "cond, sigma_mins",
        [(math.nan, [0.1]), (15.0, [0.1, math.nan]), (15.0, [math.inf]), (1e300, [1e10])],
        ids=["cond-nan", "sigma-min-nan", "sigma-min-inf", "top-overflows"],
    )
    def test_cond_ratio_rejects_non_finite_spectrum(self, cond, sigma_mins):
        with pytest.raises(ValueError):
            run_cond_ratio_sweep(4, cond, sigma_mins, trials=1)

    def test_cond_ratio_rejects_target_below_one(self):
        with pytest.raises(ValueError):
            run_cond_ratio_sweep(4, 0.5, [0.1], trials=1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: run_ber_sweep(4, [], trials=1),
            lambda: run_cond_ratio_sweep(4, 15.0, [], trials=1),
            lambda: run_cond_ratio_sweep(4, 15.0, [0.1, 0.0], trials=1),
            lambda: run_min_singular_cdf([4], grid=(), trials=1),
            lambda: run_min_singular_cdf([4], grid=(0.5, math.nan), trials=1),
            lambda: run_min_singular_cdf([4], tail_grid=(math.nan,), trials=1),
            lambda: run_min_singular_cdf([4], tail_grid=(1.0, -0.5), trials=1),
            lambda: run_min_singular_cdf([4], tail_grid=(math.inf,), trials=1),
            lambda: run_gain_sweep([2], "30", trials=1),
            lambda: run_ber_sweep(4, "10", trials=1),
            lambda: run_min_singular_cdf([4], grid="12", trials=1),
            lambda: run_table1("24", trials=1),
        ],
        ids=[
            "ber-snr", "condratio-sigma-min", "condratio-nonpositive", "cdf-grid",
            "cdf-grid-nan", "cdf-tail-grid-nan", "cdf-tail-grid-negative", "cdf-tail-grid-inf",
            "gain-snr-string", "ber-snr-string", "cdf-grid-string", "table1-dims-string",
        ],
    )
    def test_rejects_empty_or_bad_grids(self, call, monkeypatch):
        def no_blocks(*args):
            raise AssertionError("a block ran before the checks")

        monkeypatch.setattr(experiments, "_run_blocks", no_blocks)
        with pytest.raises(ValueError):
            call()


    @pytest.mark.parametrize(
        "call",
        [
            lambda: run_gain_sweep([2], [0.0, math.nan], trials=1),
            lambda: run_ber_sweep(4, [math.nan], trials=1),
            lambda: run_cond_ratio_sweep(4, 15.0, [0.1, math.nan], trials=1),
            lambda: run_min_singular_cdf([4], grid=(0.5, math.nan), trials=1),
            lambda: run_min_singular_cdf([4], tail_grid=(math.nan,), trials=1),
        ],
        ids=["gain-snr", "ber-snr", "condratio-sigma-min", "cdf-grid", "cdf-tail-grid"],
    )
    def test_a_nan_grid_point_is_the_grid_rules_error(self, call):
        with pytest.raises(ValueError, match="must be nonempty, without NaN"):
            call()


def test_integral_floats_count_as_integers():
    exact = run_table1([2], trials=10, master_seed=3, workers=1)
    floats = run_table1([2.0], trials=10.0, master_seed=3.0, workers=1.0)
    assert floats.rows == exact.rows and floats.metadata == exact.metadata
    assert type(floats.rows[0]["seed"]) is int and type(floats.rows[0]["trials"]) is int


class TestRunTable1:
    def test_close_to_reference_statistics(self, table1_table):
        # coarse check at 3000 trials; the acceptance suite pins tight bands
        by_n = {row["n"]: row for row in table1_table.rows}
        assert by_n[2]["mean_sigma_min"] == pytest.approx(0.642, rel=0.08)
        assert by_n[2]["mean_cond"] == pytest.approx(4.27, rel=0.15)
        assert by_n[4]["mean_sigma_min"] == pytest.approx(0.447, rel=0.08)
        assert by_n[4]["mean_cond"] == pytest.approx(10.82, rel=0.15)

    def test_rows_carry_seed_and_trials(self, table1_table):
        for row in table1_table.rows:
            assert row["seed"] == 42
            assert row["trials"] == 3000

    def test_metadata(self, table1_table):
        assert table1_table.metadata["seed"] == 42
        assert table1_table.metadata["snr_convention"] == "none"
        assert table1_table.metadata["version"]

    def test_deterministic(self, table1_table):
        again = run_table1([2, 4], trials=3000, master_seed=42)
        assert again.rows == table1_table.rows

    def test_worker_count_invariant(self, table1_table):
        parallel = run_table1([2, 4], trials=3000, master_seed=42, workers=3)
        assert parallel.rows == table1_table.rows


class TestRunGainSweep:
    def test_high_snr_gain_negligible(self):
        table = run_gain_sweep([4], [50.0], trials=1500, master_seed=1)
        assert table.rows[0]["mean_gain_db"] <= 0.5
        assert table.rows[0]["n_excluded"] == 0

    def test_gain_non_increasing_in_snr(self):
        table = run_gain_sweep([4], [0.0, 10.0, 20.0, 30.0], trials=2500, master_seed=2)
        rows = table.select(n=4)
        for prev, cur in zip(rows, rows[1:]):
            slack = 3.0 * math.hypot(prev["se_gain_db"], cur["se_gain_db"])
            assert cur["mean_gain_db"] <= prev["mean_gain_db"] + slack

    def test_gain_grows_with_dimension(self):
        table = run_gain_sweep([2, 8], [0.0], trials=2500, master_seed=3)
        by_n = {row["n"]: row["mean_gain_db"] for row in table.rows}
        assert by_n[8] > by_n[2]

    def test_worker_count_invariant(self):
        a = run_gain_sweep([4], [0.0, 20.0], trials=2000, master_seed=4)
        b = run_gain_sweep([4], [0.0, 20.0], trials=2000, master_seed=4, workers=2)
        assert a.rows == b.rows

    def test_requires_grid(self):
        with pytest.raises(ValueError):
            run_gain_sweep([4], [], trials=10, master_seed=0)


class TestRunMinSingularCdf:
    def test_cdf_limits(self, cdf_table):
        for n in (2, 4):
            rows = cdf_table.select(statistic="cdf_sigma_min", n=n)
            assert rows[0]["x"] == 0.0 and rows[0]["value"] == 0.0
            assert rows[-1]["value"] == 1.0

    def test_cdf_monotone_in_x(self, cdf_table):
        rows = cdf_table.select(statistic="cdf_sigma_min", n=4)
        values = [r["value"] for r in rows]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_dominance_larger_dimension(self, cdf_table):
        rows2 = cdf_table.select(statistic="cdf_sigma_min", n=2)
        rows4 = cdf_table.select(statistic="cdf_sigma_min", n=4)
        for r2, r4 in zip(rows2, rows4):
            slack = 3.0 * math.hypot(r2["se"], r4["se"])
            assert r4["value"] >= r2["value"] - slack

    def test_tail_rows_for_largest_dim_only(self, cdf_table):
        tails = cdf_table.select(statistic="tail_scaled_sigma_min")
        assert tails and all(r["n"] == 4 for r in tails)
        for r in tails:
            assert r["reference"] == pytest.approx(analysis.edelman_tail(r["x"]), rel=1e-12)

    def test_deterministic(self, cdf_table):
        again = run_min_singular_cdf([2, 4], trials=4000, master_seed=9)
        assert again.rows == cdf_table.rows

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_counts_equal_an_svd_of_the_same_bidiagonals(self, n, seed):
        # The runner counts by Sturm bisection; decompose the same draws
        # densely and count sigma_min <= x (tail: N sigma_min >= x) instead.
        trials = 2000
        sizes = experiments._block_sizes(trials, experiments._block_matrices(n))
        expected = []
        for tag, beta, grid in (
            (experiments._TAG_CDF, 2, experiments.DEFAULT_CDF_GRID),
            (experiments._TAG_EDELMAN, 1, experiments.DEFAULT_TAIL_GRID),
        ):
            hits = np.zeros(len(grid), dtype=int)
            for i, size in enumerate(sizes):
                g = RngStream(seed, (tag, n, i)).generator()
                d, e = channel._gaussian_bidiagonal(g, size, n, beta)
                b = np.zeros((size, n, n))
                b[:, np.arange(n), np.arange(n)] = d
                b[:, np.arange(n - 1), np.arange(1, n)] = e
                if beta == 2:
                    smin = np.linalg.svd(channel._normalized(b), compute_uv=False)[:, -1]
                    hits += np.sum(smin[:, None] <= np.asarray(grid), axis=0)
                else:
                    scaled = math.sqrt(n) * np.linalg.svd(b, compute_uv=False)[:, -1]
                    hits += np.sum(scaled[:, None] >= np.asarray(grid), axis=0)
            expected += [(x, int(k) / trials) for x, k in zip(grid, hits)]
        rows = run_min_singular_cdf([n], trials=trials, master_seed=seed).rows
        assert [(r["x"], r["value"]) for r in rows] == expected


class TestRunBerSweep:
    def test_mmse_dominates_zf(self, ber_table):
        for snr in (8.0, 16.0, 24.0):
            zf = ber_table.select(detector="zf", snr_db=snr)[0]
            mmse = ber_table.select(detector="mmse", snr_db=snr)[0]
            assert mmse["ber"] <= zf["ber"] + 3.0 * zf["se_paired_diff"]

    def test_ber_non_increasing_in_snr(self, ber_table):
        for detector in ("zf", "mmse"):
            rows = ber_table.select(detector=detector)
            for prev, cur in zip(rows, rows[1:]):
                slack = 3.0 * math.hypot(prev["se_ber"], cur["se_ber"])
                assert cur["ber"] <= prev["ber"] + slack

    def test_bits_accounting(self, ber_table):
        for row in ber_table.rows:
            assert row["bits"] == 30000 * 8
            assert row["ber"] == pytest.approx(row["bit_errors"] / row["bits"])

    def test_worker_count_invariant(self):
        a = run_ber_sweep(4, [12.0], trials=20000, master_seed=5)
        b = run_ber_sweep(4, [12.0], trials=20000, master_seed=5, workers=2)
        assert a.rows == b.rows

    def test_noiseless_limit_zero_errors(self):
        table = run_ber_sweep(4, [60.0], trials=5000, master_seed=11)
        for row in table.rows:
            assert row["bit_errors"] == 0
            assert row["low_confidence"] == 1

    def test_floor_exhaustion_propagates(self):
        # feasible for N = 4, so the block runs, but far too improbable for the budget
        with pytest.raises(SamplingExhaustedError) as err:
            run_ber_sweep(4, [10.0], sigma_min_floor=1.9, trials=64, master_seed=1)
        assert err.value.attempts == channel.DEFAULT_MAX_ATTEMPTS

    def test_unattainable_floor_raises_before_any_block(self, monkeypatch):
        def no_blocks(*args):
            raise AssertionError("a block ran")

        monkeypatch.setattr(experiments, "_run_blocks", no_blocks)
        with pytest.raises(SamplingExhaustedError) as err:
            run_ber_sweep(4, [10.0], sigma_min_floor=2.0, trials=10**9)
        assert err.value.attempts == 0

    def test_floored_sweep_runs(self):
        floored = run_ber_sweep(4, [20.0], sigma_min_floor=0.3, trials=10000, master_seed=13)
        unfloored = run_ber_sweep(4, [20.0], trials=10000, master_seed=13)
        # flooring removes the worst channels, so errors drop sharply
        zf = floored.select(detector="zf")[0]
        zf_unfloored = unfloored.select(detector="zf")[0]
        assert zf["ber"] < zf_unfloored["ber"]


_ERFC = np.frompyfunc(math.erfc, 1, 1)


def _q(x):
    """Gaussian tail ``Q(x) = erfc(x / sqrt(2)) / 2``, elementwise."""
    return 0.5 * _ERFC(x / math.sqrt(2.0)).astype(np.float64)


def _dense_channels(g, count, n, floor):
    """``count`` normalized CN(0, 1) channels with sigma_min >= ``floor``, by dense SVDs."""
    kept = []
    while sum(map(len, kept)) < count:
        z = g.standard_normal((8192, n, n)) + 1j * g.standard_normal((8192, n, n))
        h = z * (n / np.linalg.norm(z, axis=(1, 2)))[:, None, None]
        kept.append(h[np.linalg.svd(h, compute_uv=False)[:, -1] >= floor])
    return np.concatenate(kept)[:count]


def _conditional_ber(h, v):
    """Exact ZF and MMSE QPSK bit error rates of each channel of the stack ``h``.

    With ``M = H^H H`` and CN(0, v) noise, each bit of stream k errs under
    ZF with probability ``Q(1 / sqrt(v [M^-1]_kk))``.  Under MMSE,
    ``A = (M + vI)^-1 M`` is Hermitian and the real part of stream k is
    ``A_kk Re x_k`` plus the interference ``sum_{j != k} (Re A_kj Re x_j -
    Im A_kj Im x_j)`` plus Gaussian noise of variance ``(v / 2) [(M + vI)^-1
    M (M + vI)^-1]_kk``; its bit error is the mean of Q over the
    ``2^(2N - 2)`` equally likely interference signs, and the imaginary bit
    has the same law.
    """
    count, n, _ = h.shape
    gram = h.conj().swapaxes(1, 2) @ h
    zf = _q(1.0 / np.sqrt(v * np.diagonal(np.linalg.inv(gram), axis1=1, axis2=2).real))
    r = np.linalg.inv(gram + v * np.eye(n))
    a, c = r @ gram, r @ gram @ r
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=2 * (n - 1)))).T
    mmse = np.empty((count, n))
    for k in range(n):
        others = [j for j in range(n) if j != k]
        interference = np.concatenate([a[:, k, others].real, a[:, k, others].imag], axis=1)
        margin = (a[:, k, k, None].real + interference @ signs) / math.sqrt(2.0)
        mmse[:, k] = _q(margin / np.sqrt(0.5 * v * c[:, k, k, None].real)).mean(axis=1)
    return zf.mean(axis=1), mmse.mean(axis=1)


class TestBerLevel:
    """The BER kernel's level against the exact conditional BER of known channels.

    Monte Carlo of ``_ber_block`` (8192 transmissions) is compared with the
    conditional BER averaged over 4096 independent dense channels of the
    same law, floored by SVD.  Each of the 16 comparisons allows 4 combined
    standard errors, which a correct kernel exceeds with probability
    6.3e-5, so a seed fails about once in a thousand.  Doubling the noise
    power, in ``_transmit`` or in the unfloored branch alone, moves the
    unfloored rows by tens of standard errors.
    """

    @pytest.mark.parametrize("floor", [0.0, 0.3])
    @pytest.mark.parametrize("n", [2, 4])
    def test_ber_matches_the_conditional_ber(self, n, floor):
        for snr in (5.0, 15.0):
            v = noise_var_from_snr(snr, n).variance
            key = (n, int(10 * floor), int(snr))
            errors = experiments._ber_block(RngStream(31, key).generator(), n, v, floor, 8192)
            h = _dense_channels(RngStream(32, key).generator(), 4096, n, floor)
            for k, exact in zip(errors, _conditional_ber(h, v)):
                (mc, se_mc), (ce, se_ce) = (
                    (np.mean(x), np.std(x, ddof=1) / math.sqrt(x.size)) for x in (k / (2 * n), exact)
                )
                assert abs(mc - ce) <= 4 * math.hypot(se_mc, se_ce), (snr, mc, ce)


def _exact_mean_sigma_min(n):
    """``E[sigma_min]`` of a normalized ``n x n`` CN(0, 1) channel.

    ``sigma_min^2 / N`` ~ Beta(1, N^2 - 1), so the mean is
    ``sqrt(N) Gamma(3/2) Gamma(N^2) / Gamma(N^2 + 1/2)``.
    """
    return math.sqrt(n) * math.exp(math.lgamma(1.5) + math.lgamma(n * n) - math.lgamma(n * n + 0.5))


def _exact_zf_ber(n, snr_db):
    """Unfloored ZF QPSK BER ``E[Q(sqrt(N snr B))]``, B ~ Beta(1, N^2 - 1).

    Each stream's post-ZF SNR of a normalized channel is ``N snr B``.  The
    mean is 400-node Gauss-Legendre in ``u = sqrt(b)`` on [0, 1], where the
    integrand ``Q(sqrt(N snr) u) 2u (N^2 - 1) (1 - u^2)^(N^2 - 2)`` is smooth;
    100 and 2000 nodes agree with it to 2e-13 relative at N = 4.
    """
    x, w = np.polynomial.legendre.leggauss(400)
    u, w, m = 0.5 * (x + 1.0), 0.5 * w, n * n - 1
    density = 2.0 * u * m * (1.0 - u * u) ** (m - 1)
    return float(np.sum(w * density * _q(np.sqrt(n * 10.0 ** (snr_db / 10.0)) * u)))


def _exact_mean_gain_n2(snr_db):
    """Mean MMSE-over-ZF gain (dB) of ``run_gain_sweep`` at N = 2, ``E[g(B)]``.

    The normalization fixes ``lambda_1 + lambda_2 = 4`` for the squared
    singular values, and ``B = lambda_2 / 2`` ~ Beta(1, 3), so
    ``lambda_1 = 4 - 2B``.  The N = 2 formulas are written out here, not
    taken from lindet: ``N b - a = (u_1 - u_2)^2`` with
    ``u_i = v / (lambda_i + v)``.  The gain grows like ``-log b`` at
    ``b = 0``, so the mean is 400-node Gauss-Legendre in ``b = u^4``; 100
    and 2000 nodes agree with it to 3e-13 relative.
    """
    x, w = np.polynomial.legendre.leggauss(400)
    u, w = 0.5 * (x + 1.0), 0.5 * w
    b = u**4
    lam = np.stack([4.0 - 2.0 * b, 2.0 * b])
    v = 2.0 / 10.0 ** (snr_db / 10.0)
    t, r = lam / (lam + v), v / (lam + v)
    zf = 2.0 / np.sum(v / lam, axis=0)
    mmse = (np.sum(t, axis=0) ** 2 + np.sum(t * t, axis=0)) / (
        3.0 * v * np.sum(lam / (lam + v) ** 2, axis=0) + (r[0] - r[1]) ** 2
    )
    density = 3.0 * (1.0 - b) ** 2 * 4.0 * u**3
    return float(np.sum(w * density * 10.0 * np.log10(mmse / zf)))


class TestExactReferences:
    """Runner outputs against closed forms of the normalized ensemble.

    Each z-score is an estimate less its exact value, over the row's
    standard error, and a test fails when some |z| exceeds 4.5: under the
    law that happens with probability below 7e-6 a row, so about 2e-5 for
    the three rows of a test and 2.7e-5 for the four of the gain test, at
    a fresh seed.  At these seeds the largest |z| is 1.98.  A normalization
    scaled by 1.01 moves ``mean_sigma_min`` to z = 10.6, 9.1 and 10.2 at
    N = 2, 4 and 8, doubling the unfloored noise variance moves the ZF BER
    to z = 112, 158 and 75, and an MMSE denominator with ``N`` in place of
    ``N + 1`` moves the N = 2 gain to z >= 147.
    """

    def test_mean_sigma_min(self):
        assert [round(_exact_mean_sigma_min(n), 4) for n in (2, 4, 8)] == [0.6465, 0.4466, 0.3139]
        rows = run_table1([2, 4, 8], trials=196608, master_seed=5).rows
        z = [(r["mean_sigma_min"] - _exact_mean_sigma_min(r["n"])) / r["se_sigma_min"] for r in rows]
        assert np.max(np.abs(z)) <= 4.5, z

    def test_unfloored_zf_ber(self):
        exact = [_exact_zf_ber(4, snr) for snr in (0.0, 10.0, 20.0)]
        np.testing.assert_allclose(exact, [0.331786, 0.123808, 0.017816], atol=1e-6)
        table = run_ber_sweep(4, [0.0, 10.0, 20.0], trials=200000, master_seed=11)
        z = [(r["ber"] - p) / r["se_ber"] for r, p in zip(table.select(detector="zf"), exact)]
        assert np.max(np.abs(z)) <= 4.5, z

    def test_mean_gain_n2(self):
        snrs = (0.0, 10.0, 20.0, 30.0)
        exact = [_exact_mean_gain_n2(snr) for snr in snrs]
        np.testing.assert_allclose(
            exact, [4.820790288656, 1.873572614257, 0.379318308839, 0.057871487651], rtol=1e-11
        )
        rows = run_gain_sweep([2], snrs, trials=200000, master_seed=7).rows
        assert [r["n_excluded"] for r in rows] == [0] * 4
        z = [(r["mean_gain_db"] - g) / r["se_gain_db"] for r, g in zip(rows, exact)]
        assert np.max(np.abs(z)) <= 4.5, z


class TestRunCondRatioSweep:
    def test_fig5_operating_point(self, condratio_table):
        row = condratio_table.select(sigma_min=0.1)[0]
        assert 1.2 <= row["mean_cond_w_mmse"] <= 1.7
        assert row["mean_cond_w_zf"] == pytest.approx(15.0, rel=1e-9)

    def test_approx_accurate_for_moderate_floor(self, condratio_table):
        for sigma_min in (0.3, 1.0):
            row = condratio_table.select(sigma_min=sigma_min)[0]
            rel = abs(row["mean_exact_ratio"] - row["approx_ratio"]) / row["mean_exact_ratio"]
            assert rel <= 0.10

    def test_approx_degrades_for_small_floor(self, condratio_table):
        row = condratio_table.select(sigma_min=0.05)[0]
        rel = abs(row["mean_exact_ratio"] - row["approx_ratio"]) / row["mean_exact_ratio"]
        assert rel > 0.10

    def test_ratio_near_one_for_large_floor(self, condratio_table):
        row = condratio_table.select(sigma_min=1.0)[0]
        assert abs(row["mean_exact_ratio"] - 1.0) <= 0.10

    def test_geometric_interior_differs(self):
        geo = run_cond_ratio_sweep(
            4, 15.0, [0.1], snr_db=10.0, trials=32, master_seed=3, interior="geometric"
        )
        assert geo.rows[0]["mean_cond_w_mmse"] == pytest.approx(2.4025, rel=1e-3)

    def test_metadata_convention(self, condratio_table):
        assert condratio_table.metadata["snr_convention"] == "inverse_sigma2"

    def test_draws_nothing(self, monkeypatch):
        # every column is a closed form of the prescribed spectrum, so the
        # seed, the trial count and the workers change no value
        def fail(*args, **kwargs):
            raise AssertionError("condratio ran a block or drew")

        monkeypatch.setattr(experiments, "_run_blocks", fail)
        monkeypatch.setattr(RngStream, "generator", fail)
        grid = [0.05, 0.3, 2.0]
        a = run_cond_ratio_sweep(4, 15.0, grid, trials=1, master_seed=0, workers=1)
        b = run_cond_ratio_sweep(4, 15.0, grid, trials=5000, master_seed=9, workers=2)
        unstamped = [[{k: v for k, v in row.items() if k not in ("seed", "trials")}
                      for row in t.rows] for t in (a, b)]
        assert unstamped[0] == unstamped[1]
        assert [(row["seed"], row["trials"]) for row in b.rows] == [(9, 5000)] * 3


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, runs tasks inline."""

    sizes = []

    def __init__(self, max_workers=None):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


# Runs two blocks of every kernel through a forked pool and prints the
# modules a worker loaded while running a block.  The arguments are built
# without drawing, so the parent has imported no more than lindet needs.
_WORKER_IMPORT_PROBE = """
import sys

import numpy as np

from lindet import experiments as ex


def probe(task):
    before = set(sys.modules)
    ex._run_block(task)
    return set(sys.modules) - before


n, v, grid = 3, 0.1, (0.1, 0.5, 1.0)
kernels = [
    (ex._gain_block, (n, v)),
    (ex._table1_block, (n,)),
    (ex._cdf_block, (n, grid)),
    (ex._edelman_block, (n, grid)),
    (ex._ber_block, (n, v, 0.0)),
    (ex._ber_block, (n, v, 0.3)),
    (ex._distortion_block, (n, np.eye(n), np.eye(n), v)),
]
tasks = [(k, 0, (i, j), args, 20) for i, (k, args) in enumerate(kernels) for j in range(2)]
print(sorted(set().union(*ex._run_blocks(probe, tasks, workers=2))))
"""


# Runs lindet without a pool, then with one, in one process, and prints
# whether the pool stack was loaded after each run.
_POOL_STACK_PROBE = """
import sys

import lindet, lindet.cli

loaded = []


def run(*argv):
    assert lindet.cli.run_cli(argv) == 0
    loaded.append("multiprocessing" in sys.modules or "concurrent.futures.process" in sys.modules)


gain = ("gain", "--dims", "4", "--snr", "0", "--trials", "9000")
run("ber", "--n", "4", "--snr", "0", "--sigma-min", "0.3", "--trials", "100", "--workers", "1")
run(*gain, "--workers", "1", "--out", "w1.csv")
run(*gain, "--workers", "2", "--out", "w2.csv")
print(loaded)
"""


class TestRunBlocks:
    @pytest.fixture
    def pool(self, monkeypatch):
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", _RecordingPool)
        _RecordingPool.sizes = []
        return _RecordingPool

    def test_pool_capped_at_usable_cpus(self, pool, monkeypatch):
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        out = experiments._run_blocks(abs, list(range(-50, 0)), workers=100000)
        assert out == list(range(50, 0, -1))
        assert pool.sizes == [3]

    def test_pool_capped_at_task_count(self, pool, monkeypatch):
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: set(range(64)))
        experiments._run_blocks(abs, [-1, -2, -3], workers=8)
        assert pool.sizes == [3]

    def test_cpu_count_fallback(self, pool, monkeypatch):
        monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        experiments._run_blocks(abs, list(range(10)), workers=100000)
        assert pool.sizes == [2]

    def test_huge_worker_request_through_a_runner(self, pool, monkeypatch):
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1})
        capped = run_gain_sweep([2], [10.0], trials=9000, master_seed=4, workers=100000)
        assert pool.sizes == [2]
        assert capped.rows == run_gain_sweep([2], [10.0], trials=9000, master_seed=4).rows

    @pytest.mark.parametrize(
        "runner, pools",
        [
            (lambda **kw: run_min_singular_cdf([2, 4], **kw), 1),
            (lambda **kw: run_table1([2, 4], **kw), 1),
            (lambda **kw: run_gain_sweep([4], [0, 10], **kw), 2),
        ],
        ids=["cdf", "table1", "gain"],
    )
    def test_pools_per_run(self, pool, monkeypatch, runner, pools):
        # 9000 trials are two blocks a point: cdf and table1 run all their
        # points' blocks through one pool, gain starts one per grid point.
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1})
        pooled = runner(trials=9000, master_seed=3, workers=2)
        assert pool.sizes == [2] * pools
        assert pooled.rows == runner(trials=9000, master_seed=3, workers=1).rows

    @pytest.mark.skipif(
        multiprocessing.get_all_start_methods()[0] != "fork" or len(os.sched_getaffinity(0)) < 2,
        reason="needs 2 usable CPUs and the fork start method",
    )
    def test_forked_workers_import_no_module(self):
        src = str(Path(experiments.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", _WORKER_IMPORT_PROBE],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert out.stdout.strip() == "[]", out.stdout

    def test_only_a_pool_loads_the_pool_stack(self, tmp_path):
        src = str(Path(experiments.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", _POOL_STACK_PROBE],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert out.stdout.splitlines()[-1] == "[False, False, True]", out.stdout
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()


class TestBlockRule:
    @pytest.mark.parametrize("n", range(1, 23))
    def test_small_dims_keep_full_blocks(self, n):
        assert experiments._block_matrices(n) == 8192

    def test_budget_binds_from_23(self):
        assert experiments._block_matrices(23) == experiments.BLOCK_ELEMENTS // 23**2 < 8192

    def test_n64_blocks_hold_1024_matrices(self):
        assert experiments._block_matrices(64) == 1024

    @pytest.mark.parametrize("n", [128, 1024, 2048])
    def test_blocks_stay_within_the_element_budget(self, n):
        assert experiments._block_matrices(n) * n * n <= 2**22

    @pytest.mark.parametrize("n", [2, 64, 2048, 2049, 10**6])
    def test_at_least_one_matrix_per_block(self, n):
        assert experiments._block_matrices(n) >= 1

    def test_reduce_splits_trials_by_the_rule(self, monkeypatch):
        sizes = []

        def record(worker, tasks, workers):
            # One (count, total, total of squares) triple per column and block.
            sizes.extend(task[-1] for task in tasks)
            return [[(task[-1], 0.0, 0.0)] for task in tasks]

        monkeypatch.setattr(experiments, "_run_blocks", record)
        assert experiments._reduce(None, 0, (1,), (64,), 2500, 1) == [(2500, 0.0, 0.0)]
        assert sizes == [1024, 1024, 452]

    def test_worker_count_invariant_where_the_budget_binds(self):
        a = run_min_singular_cdf([64], trials=2500, master_seed=6, workers=1)
        b = run_min_singular_cdf([64], trials=2500, master_seed=6, workers=2)
        assert a.rows == b.rows

    def test_layout_recorded_in_the_metadata(self, table1_table, condratio_table):
        for table in (table1_table, condratio_table):
            assert table.metadata["stream_layout"] == 6
            assert table.metadata["block_elements"] == 2**22


# Blocks of 30 matrices, so 97 trials are blocks of 30, 30, 30 and 7.  A
# budget of 100 elements makes slices of 25, 11, 6 and 4 matrices at N = 2,
# 3, 4 and 5: every block's last slice is partial but in the full blocks at
# N = 4.  The slice fixes the BER draws, so only the runners that decompose
# drawn bidiagonals are here.
_SLICED_RUNS = {
    "table1": lambda workers: run_table1([2, 5], trials=97, master_seed=8, workers=workers),
    "gain": lambda workers: run_gain_sweep(
        [3, 4], [0.0, 20.0], trials=97, master_seed=8, workers=workers
    ),
}


class TestChunks:
    """Blocks are cut into slices of ``channel._SLICE_ELEMENTS`` elements."""

    @pytest.mark.parametrize(
        "count, n", [(1, 4), (97, 2), (8192, 4), (8192, 20), (1024, 64), (3, 200)]
    )
    def test_slices_cover_the_block_within_the_budget(self, count, n):
        slices = channel._slices(count, n)
        step = max(1, channel._SLICE_ELEMENTS // n**2)
        assert [i for c in slices for i in range(count)[c]] == list(range(count))
        assert all(0 < c.stop - c.start <= step for c in slices)

    @pytest.mark.parametrize("run", list(_SLICED_RUNS.values()), ids=list(_SLICED_RUNS))
    def test_decompositions_do_not_depend_on_the_slice_budget(self, run, monkeypatch):
        monkeypatch.setattr(experiments, "_BLOCK", 30)
        reference = run(1).rows
        for budget in (1, 100, 2**40):
            monkeypatch.setattr(channel, "_SLICE_ELEMENTS", budget)
            for workers in (1, 2):
                assert run(workers).rows == reference, (budget, workers)

    # Slices of 512 and 20 matrices at N = 4 and 20, so 1100 and 50 matrices
    # end in a partial slice; at N = 200 every slice holds one matrix.  The
    # floored BER's rejection rounds decompose through this function.
    @pytest.mark.parametrize("count, n", [(1100, 4), (50, 20), (3, 200), (0, 4)])
    def test_bidiagonal_svd_equals_one_matrix_decompositions(self, count, n):
        d, e = channel._gaussian_bidiagonal(RngStream(32).generator(), count, n, 2)
        i = np.arange(n)
        alone = np.empty((count, n))
        for k in range(count):
            b = np.zeros((1, n, n))
            b[0, i, i], b[0, i[:-1], i[1:]] = d[k], e[k]
            alone[k] = np.linalg.svd(channel._normalized(b), compute_uv=False)[0]
        got = channel._bidiagonal_svd(d, e)
        assert got.shape == (count, n) and got.tobytes() == alone.tobytes()

    @staticmethod
    def _peak_bytes(call):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    # A kernel holds its block's draws and outputs, the whole of which it
    # may build twice over (the diagonals are drawn through temporaries),
    # plus a few complex slices.  Run on whole blocks, the dense stage
    # peaked at 6.6x this bound.
    def test_spectra_hold_their_diagonals_and_a_few_slices(self):
        count, n = 8192, 20
        g = RngStream(30).generator()
        # The diagonals d, e and the spectra s, all float64.
        limit = 2 * 8 * count * (3 * n - 1) + 8 * 16 * channel._SLICE_ELEMENTS
        assert self._peak_bytes(lambda: channel._gaussian_spectra(g, count, n)) <= limit

    # The BER blocks draw and finish their trials in slices of
    # channel._SLICE_ELEMENTS elements, so their peak does not grow with the
    # block beyond a few per-trial floats (a floored block's spectra and
    # error counts; its rejection rounds are capped too).  Drawn whole, these
    # blocks peaked at 6.0 and 96 MB.
    _SLICED_LIMIT = 8 * 2**20

    @pytest.mark.parametrize("n, count, floor", [(4, 8192, 0.3), (64, 1024, 0.0)])
    def test_ber_block_memory_does_not_grow_with_the_block(self, n, count, floor):
        g = RngStream(31).generator()
        variance = noise_var_from_snr(10.0, n).variance
        peak = self._peak_bytes(lambda: experiments._ber_block(g, n, variance, floor, count))
        assert peak <= self._SLICED_LIMIT

    # 8192 + 700 trials at N = 4: the second block ends in a partial slice of
    # 700 - 512 = 188 trials, and two workers really start a pool.
    @pytest.mark.parametrize("run", [
        lambda workers: run_ber_sweep(4, [12.0], trials=8892, master_seed=4, workers=workers),
        lambda workers: run_ber_sweep(
            4, [12.0], sigma_min_floor=0.3, trials=8892, master_seed=4, workers=workers
        ),
    ], ids=["ber", "ber-floored"])
    def test_worker_count_invariant_with_a_partial_slice(self, run):
        assert 8892 % 8192 % (channel._SLICE_ELEMENTS // 16) == 188
        assert run(1).rows == run(2).rows


_TOY_GRID = (-0.5, 0.0, 0.5)


def _toy_block(g, n, grid, count):
    x = g.standard_normal(count)
    return x, g.integers(0, 5, size=count), x[:, None] <= np.asarray(grid)[None, :]


class TestReduceContract:
    """``_reduce`` turns per-trial columns into exact (count, total, total of squares)."""

    @pytest.fixture(scope="class")
    def draws(self):
        # The same draws _reduce makes: N = 64 splits 2500 trials as 1024/1024/452.
        blocks = [
            _toy_block(RngStream(5, (9, i)).generator(), 64, _TOY_GRID, size)
            for i, size in enumerate([1024, 1024, 452])
        ]
        return [np.concatenate(column) for column in zip(*blocks)], blocks

    @pytest.fixture(scope="class")
    def reduced(self):
        return experiments._reduce(_toy_block, 5, (9,), (64, _TOY_GRID), 2500, 2)

    def test_float_column_is_the_fsum_of_block_sums(self, reduced, draws):
        (x, _, _), blocks = draws
        assert reduced[0] == (
            2500,
            math.fsum(float(np.sum(b[0])) for b in blocks),
            math.fsum(float(np.sum(b[0] * b[0])) for b in blocks),
        )
        assert reduced[0][1] == pytest.approx(math.fsum(x.tolist()), rel=1e-12)

    def test_int_and_bool_columns_are_exact_sums(self, reduced, draws):
        (x, k, hits), _ = draws
        assert reduced[1] == (2500, sum(k.tolist()), sum(v * v for v in k.tolist()))
        counts = [sum(row) for row in zip(*hits.tolist())]
        assert reduced[2] == (2500, counts, counts)
        assert counts == [int(np.count_nonzero(x <= t)) for t in _TOY_GRID]

    def test_worker_count_invariant(self):
        args = (_toy_block, 5, (9,), (64, _TOY_GRID), 2500)
        assert experiments._reduce(*args, 1) == experiments._reduce(*args, 2)

    def test_totals_are_python_numbers(self, reduced):
        for count, *totals in reduced:
            assert type(count) is int
            for total in totals:
                assert type(total) in (int, float, list)
                if type(total) is list:
                    assert all(type(v) is int for v in total)


class TestDistortionOracle:
    def test_is_the_reduction_of_its_block_kernel(self):
        # 9000 trials at N = 2 are two blocks, 8192 and 808 trials.
        h = np.array([[1.2, 0.3j], [-0.4, 0.9]])
        w = detection.zf_filter(h)
        rng = RngStream(21, (3,))
        blocks = [
            experiments._distortion_block(rng.child(i).generator(), 2, h, w.matrix, 0.2, size)
            for i, size in enumerate([8192, 808])
        ]
        distortion = math.fsum(float(np.sum(column)) for [column] in blocks)
        oracle = experiments.empirical_distortion_snr(h, w, NoiseModel(0.2), 9000, rng)
        assert oracle == 2 * 9000 / distortion


class TestStandardErrors:
    """``_mean_se`` of the reduced triples against a two-pass SE of the same per-trial columns.

    The one-pass ``(total_sq - n mean^2) / (n - 1)`` could cancel; these
    columns keep its relative gap to ``std(ddof=1) / sqrt(n)`` near 1e-15.
    """

    @staticmethod
    def _assert_two_pass(kernel, key, args, trials):
        blocks = []

        def recording(*a):
            blocks.append(kernel(*a))
            return blocks[-1]

        reduced = experiments._reduce(recording, 11, key, args, trials, 1)
        assert len(blocks) > 1
        for triple, column in zip(reduced, zip(*blocks)):
            x = np.concatenate(column).astype(float)
            mean, se = experiments._mean_se(*triple)
            assert mean == pytest.approx(np.mean(x), rel=1e-12)
            assert se == pytest.approx(np.std(x, ddof=1) / math.sqrt(x.size), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 12, 20])
    def test_table1_and_gain(self, n):
        self._assert_two_pass(experiments._table1_block, (1, n), (n,), 16384)
        for snr in (0.0, 10.0, 20.0, 30.0, 40.0, 50.0):
            variance = noise_var_from_snr(snr, n).variance
            self._assert_two_pass(experiments._gain_block, (2, n), (n, variance), 16384)

    @pytest.mark.parametrize("floor", [0.0, 0.3])
    def test_ber_and_paired_difference(self, floor):
        variance = noise_var_from_snr(10.0, 4).variance
        self._assert_two_pass(experiments._ber_block, (5,), (4, variance, floor), 16384)

    def test_distortion_oracle(self):
        h = channel.normalize(channel.sample_standard_gaussian(4, RngStream(12))).matrix
        w = detection.zf_filter(h).matrix
        self._assert_two_pass(experiments._distortion_block, (200,), (4, h, w, 0.1), 16384)
