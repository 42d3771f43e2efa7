import math

import numpy as np
import pytest

from lindet import analysis, experiments
from lindet.channel import RngStream
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
        small = {"dims": (4, 1)} if runner in _DIMS_RUNNERS else {"n": 1}
        with pytest.raises(ValueError):
            runner(**small, trials=1)

    @pytest.mark.parametrize("value", [4.5, math.inf])
    @pytest.mark.parametrize("runner", _ALL_RUNNERS, ids=_name)
    def test_rejects_non_integral_dims(self, runner, value):
        bad = {"dims": (4, value)} if runner in _DIMS_RUNNERS else {"n": value}
        with pytest.raises(ValueError, match="integers"):
            runner(**bad, trials=1)

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

    def test_ber_rejects_zero_attempt_budget(self):
        with pytest.raises(ValueError):
            run_ber_sweep(4, [10.0], sigma_min_floor=0.3, trials=1, max_attempts=0)

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
        ],
        ids=["ber-snr", "condratio-sigma-min", "condratio-nonpositive", "cdf-grid"],
    )
    def test_rejects_empty_or_bad_grids(self, call):
        with pytest.raises(ValueError):
            call()


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
        # feasible for N = 4, so the block runs, but far too improbable for 5 draws
        with pytest.raises(SamplingExhaustedError) as err:
            run_ber_sweep(
                4, [10.0], sigma_min_floor=1.9, trials=64, master_seed=1, max_attempts=5
            )
        assert err.value.attempts == 5

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

    def test_deterministic_and_worker_invariant(self):
        a = run_cond_ratio_sweep(4, 15.0, [0.1, 0.3], trials=48, master_seed=8)
        b = run_cond_ratio_sweep(4, 15.0, [0.1, 0.3], trials=48, master_seed=8, workers=2)
        assert a.rows == b.rows


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
            assert table.metadata["stream_layout"] == 2
            assert table.metadata["block_elements"] == 2**22


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
