import math

import numpy as np
import pytest

from lindet import channel, experiments, linalg
from lindet.channel import NoiseModel, RngStream
from lindet.detection import _filters, qpsk_slice
from lindet.exceptions import (
    DegenerateInputError,
    DimensionError,
    SamplingExhaustedError,
)


class TestRngStream:
    def test_same_address_reproduces(self):
        a = channel.sample_standard_gaussian(8, RngStream(9, (1, 2)))
        b = channel.sample_standard_gaussian(8, RngStream(9, (1, 2)))
        assert np.array_equal(a, b)

    def test_child_streams_differ(self):
        base = RngStream(9)
        a = channel.sample_standard_gaussian(4, base.child(0))
        b = channel.sample_standard_gaussian(4, base.child(1))
        assert not np.array_equal(a, b)

    def test_child_appends_key(self):
        assert RngStream(5).child(1, 2).key == (1, 2)
        assert RngStream(5, (7,)).child(3).key == (7, 3)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            RngStream(-1)

    @pytest.mark.parametrize(
        "seed, key",
        [(0.5, ()), (True, ()), ("3", ()), (3, (1.9,)), (3, (-1,))],
        ids=["seed-0.5", "seed-True", "seed-str", "key-1.9", "key-minus-1"],
    )
    def test_rejects_addresses_that_are_not_counts(self, seed, key):
        with pytest.raises(ValueError):
            RngStream(seed, key)

    def test_integral_forms_are_the_same_address(self):
        assert RngStream(np.int64(3), (np.int64(2),)) == RngStream(3, (2,))
        assert RngStream(3.0) == RngStream(3)
        assert type(RngStream(3.0).master_seed) is int


class TestNoiseModel:
    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            NoiseModel(-0.1)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            NoiseModel(float("nan"))


class TestStandardGaussian:
    def test_unit_second_moment(self):
        # 10^6 entries: law of large numbers pins E|h|^2 to 1 within 0.005
        h = channel.sample_standard_gaussian(1000, RngStream(1))
        assert abs(np.mean(np.abs(h) ** 2) - 1.0) <= 0.005

    def test_zero_mean(self):
        h = channel.sample_standard_gaussian(1000, RngStream(2))
        assert abs(np.mean(h)) <= 0.005

    def test_halved_component_variance(self):
        h = channel.sample_standard_gaussian(1000, RngStream(3))
        assert np.var(h.real) == pytest.approx(0.5, rel=0.02)
        assert np.var(h.imag) == pytest.approx(0.5, rel=0.02)

    def test_rejects_bad_dimension(self):
        with pytest.raises(DimensionError):
            channel.sample_standard_gaussian(0, RngStream(1))


@pytest.mark.parametrize("n", [2.5, True, "2"], ids=["2.5", "True", "str"])
@pytest.mark.parametrize(
    "call",
    [
        lambda n: experiments.noise_var_from_snr(0.0, n),
        lambda n: channel.sample_standard_gaussian(n, RngStream(1)),
        lambda n: channel.sample_floored(n, 0.0, RngStream(1)),
        lambda n: channel.synthesize_spectrum(n, 10.0, 0.1, RngStream(1)),
    ],
    ids=["noise_var_from_snr", "sample_standard_gaussian", "sample_floored", "synthesize_spectrum"],
)
def test_dimension_rule_before_any_draw(call, n, monkeypatch):
    assert call(4.0) is not None
    monkeypatch.setattr(RngStream, "generator", lambda self: pytest.fail("a draw was made"))
    with pytest.raises(DimensionError, match="n must be an integer"):
        call(n)


class TestBatchedKernels:
    def test_stack_of_one_equals_single_draw(self):
        single = channel.complex_gaussian((3, 3), RngStream(4).generator())
        stack = channel.complex_gaussian((1, 3, 3), RngStream(4).generator())
        np.testing.assert_array_equal(stack[0], single)

    def test_phase_fixed_q_of_a_stack(self):
        z = channel.complex_gaussian((5, 4, 4), RngStream(6).generator())
        q = channel._phase_fixed_q(z)
        for k in range(5):
            np.testing.assert_allclose(q[k].conj().T @ q[k], np.eye(4), atol=1e-12)
            # Q^H z is upper triangular with a positive real diagonal
            d = np.diagonal(q[k].conj().T @ z[k])
            assert np.all(d.real > 0) and np.allclose(d.imag, 0.0, atol=1e-12)
            np.testing.assert_array_equal(q[k], channel._phase_fixed_q(z[k]))

    def test_spectrum_profiles(self):
        np.testing.assert_array_equal(
            channel._spectrum_profile(4, 10.0, 0.1, "top"), [1.0, 1.0, 1.0, 0.1]
        )
        geo = channel._spectrum_profile(3, 100.0, 0.01, "geometric")
        np.testing.assert_allclose(geo, [1.0, 0.1, 0.01])
        assert geo[0] == 1.0 and geo[-1] == 0.01
        with pytest.raises(ValueError):
            channel._spectrum_profile(3, 2.0, 0.1, "linear")


def _ks(a, b):
    """Two-sample Kolmogorov-Smirnov statistic of samples ``a`` and ``b``."""
    a, b = np.sort(a), np.sort(b)
    x = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, x, side="right") / a.size
    cdf_b = np.searchsorted(b, x, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def _ks_critical(n, m):
    """Two-sample KS critical value at significance level 0.001."""
    return 1.949 * math.sqrt((n + m) / (n * m))


def _dense_spectra(g, count, n, beta):
    """Spectra of dense Gaussian draws: normalized CN(0, 1), or real with variance 1."""
    if beta == 2:
        return channel._normalized_draw(g, count, n)[1]
    return np.linalg.svd(g.standard_normal((count, n, n)), compute_uv=False)


def _bidiagonal(d, e):
    """Dense upper bidiagonal stack ``(count, n, n)`` with diagonals d and superdiagonals e."""
    count, n = d.shape
    i = np.arange(n)
    b = np.zeros((count, n, n))
    b[:, i, i] = d
    b[:, i[:-1], i[1:]] = e
    return b


def _bidiagonal_spectra(g, count, n, beta, normalized=True):
    """Spectra of the bidiagonal model, decomposed densely: the reference."""
    b = _bidiagonal(*channel._gaussian_bidiagonal(g, count, n, beta))
    return np.linalg.svd(channel._normalized(b) if normalized else b, compute_uv=False)


class TestGaussianSpectra:
    @pytest.mark.parametrize("n", [2, 4, 12, 64])
    def test_descending_positive_and_normalized(self, n):
        s = channel._gaussian_spectra(RngStream(n).generator(), 300, n)
        assert s.shape == (300, n)
        assert np.all(s[:, -1] > 0.0) and np.all(np.diff(s, axis=1) <= 0.0)
        assert np.max(np.abs(np.sum(s * s, axis=1) - n * n)) <= 1e-12 * n * n
        np.testing.assert_array_equal(s, _bidiagonal_spectra(RngStream(n).generator(), 300, n, 2))

    @pytest.mark.parametrize("beta", [1, 2])
    def test_unnormalized_entries_have_unit_variance(self, beta):
        # sum(s^2) = ||H||_F^2 is chi^2 with beta n^2 degrees of freedom over
        # beta: mean n^2, sd n sqrt(2 / beta); 4000 draws pin the mean to 1%.
        d, e = channel._gaussian_bidiagonal(RngStream(30 + beta).generator(), 4000, 6, beta)
        assert d.shape == (4000, 6) and e.shape == (4000, 5)
        assert np.mean(np.sum(d * d, axis=1) + np.sum(e * e, axis=1)) == pytest.approx(36.0, rel=0.01)

    def test_same_generator_state_same_spectra(self):
        a = channel._gaussian_spectra(RngStream(5, (1,)).generator(), 50, 8)
        b = channel._gaussian_spectra(RngStream(5, (1,)).generator(), 50, 8)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n", [4, 12])
    def test_complex_law_matches_dense_draws(self, n):
        m = 20000
        s = channel._gaussian_spectra(RngStream(1, (n,)).generator(), m, n)
        d = _dense_spectra(RngStream(2, (n,)).generator(), m, n, 2)
        critical = _ks_critical(m, m)
        assert _ks(s[:, -1], d[:, -1]) <= critical
        assert _ks(s[:, 0] / s[:, -1], d[:, 0] / d[:, -1]) <= critical

    def test_real_law_matches_dense_draws(self):
        m = 20000
        s = _bidiagonal_spectra(RngStream(1, (8,)).generator(), m, 8, 1, normalized=False)
        d = _dense_spectra(RngStream(2, (8,)).generator(), m, 8, 1)
        assert _ks(s[:, -1], d[:, -1]) <= _ks_critical(m, m)

    def test_ks_tells_the_real_from_the_complex_ensemble(self):
        # The check above has power: at 4x4 the real and complex normalized
        # ensembles are told apart at the same sample size.
        m = 20000
        real = _bidiagonal_spectra(RngStream(3).generator(), m, 4, 1)
        d = _dense_spectra(RngStream(2, (4,)).generator(), m, 4, 2)
        assert _ks(real[:, -1], d[:, -1]) > 5 * _ks_critical(m, m)

    def test_real_n64_scaled_tail(self):
        # P[N sigma_min >= x] for entries of variance 1/N, against
        # exp(-x - x^2/2) at the acceptance suite's tolerance.
        s = _bidiagonal_spectra(RngStream(4).generator(), 8192, 64, 1, normalized=False)
        scaled = 8.0 * s[:, -1]
        for x in (0.5, 1.0, 2.0):
            assert abs(np.mean(scaled >= x) - math.exp(-x - x * x / 2)) <= 0.03


def _svd_below(d, e, grid):
    """The reference of ``_sigma_min_below``: some singular value of B below x."""
    s = np.linalg.svd(_bidiagonal(d, e), compute_uv=False)
    return np.array([[np.sum(row < x) > 0 for x in grid] for row in s])


def _graded(g, count, n, decades):
    """Bidiagonal entries spread log-uniformly over 10**-decades to 10**decades."""
    d = 10.0 ** g.uniform(-decades, decades, size=(count, n))
    e = 10.0 ** g.uniform(-decades, decades, size=(count, n - 1))
    return d, e


class TestSigmaMinBelow:
    """The Sturm-count kernel gives the SVD's answer to "is sigma_min < x"."""

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_matches_svd_on_a_grid(self, n):
        g = np.random.default_rng(n)
        d, e = _graded(g, 200, n, 1)
        grid = (0.7, 0.0, 1e-3, 0.05, -1.0, 0.3, 0.05, 2.0, 1e6, math.inf, 0.01)
        np.testing.assert_array_equal(channel._sigma_min_below(d, e, grid), _svd_below(d, e, grid))

    @pytest.mark.parametrize("n", [3, 8, 20])
    def test_graded_entries_near_each_singular_value(self, n):
        # Entries over 10^-8 .. 10^8; x just below and just above every
        # singular value, 1e-9 relative away, probes each count exactly.
        g = np.random.default_rng(100 + n)
        d, e = _graded(g, 40, n, 8)
        s = np.linalg.svd(_bidiagonal(d, e), compute_uv=False)
        for k in range(40):
            grid = np.concatenate([s[k] * (1 - 1e-9), s[k] * (1 + 1e-9)])
            got = channel._sigma_min_below(d[k : k + 1], e[k : k + 1], grid)
            np.testing.assert_array_equal(got, _svd_below(d[k : k + 1], e[k : k + 1], grid))
            np.testing.assert_array_equal(got[0], grid > s[k, -1])

    def test_exact_zeros(self):
        g = np.random.default_rng(7)
        d, e = _graded(g, 60, 6, 2)
        d[0:20, 0] = 0.0
        d[20:40, 5] = 0.0
        e[20:60, 2] = 0.0
        d[40:50, 3] = 0.0
        e[50:60] = 0.0
        grid = (0.0, 1e-300, 1e-12, 0.01, 0.1, 1.0, 10.0)
        got = channel._sigma_min_below(d, e, grid)
        np.testing.assert_array_equal(got, _svd_below(d, e, grid))
        # A zero on the diagonal makes B singular: below every positive x.
        assert np.all(got[:20, 1:]) and np.all(got[20:50, 1:])

    def test_zero_pivot_meeting_a_zero_entry_restarts_the_count(self):
        # d_1 = x = 1 makes the pivot -x - d_1^2 / (-x) exactly +0, and e_1 = 0
        # turns the next one into 0/0.  The zero entry splits T, so the count
        # restarts with the pivot -x; a 0.5 or a 0.3 below makes them below.
        # Without the restart the NaN pivots count as nonnegative, and the
        # probe at x = 1 (the first, the grid's middle point) reads False.
        # The last row is an exact tie, sigma_min = 1, not below 1.
        d = np.array([[1.0, 0.5], [1.0, 0.3], [1.0, 2.0], [1.0, 3.0]])
        e = np.array([[0.0], [0.0], [0.5], [0.0]])
        grid = (0.25, 1.0, 4.0)
        got = channel._sigma_min_below(d, e, grid)
        np.testing.assert_array_equal(got, _svd_below(d, e, grid))
        np.testing.assert_array_equal(got[:2], [[False, True, True]] * 2)
        np.testing.assert_array_equal(got[3], [False, False, True])

    def test_zero_pivot_then_a_nonzero_entry(self):
        # The +0 pivot counts as nonnegative and makes the next one -inf,
        # which counts in its place; the pivot after that is -x again.
        g = np.random.default_rng(11)
        d, e = _graded(g, 40, 5, 1)
        d[:, 0] = 1.0
        d[20:, 2] = 0.0
        grid = (0.05, 1.0, 20.0)
        got = channel._sigma_min_below(d, e, grid)
        np.testing.assert_array_equal(got, _svd_below(d, e, grid))
        # B^T B - I has the determinant -e_1^2 < 0 on its leading 2 x 2 block.
        assert np.all(got[:, 1:])

    def test_zero_last_pivot_is_a_singular_value_not_below_itself(self):
        # B = diag(2, 1) at x = 1: the pivots are -1, 3, -1 and exactly +0.
        d, e = np.array([[2.0, 1.0], [2.0, 0.5]]), np.array([[0.0], [0.0]])
        got = channel._sigma_min_below(d, e, (1.0,))
        np.testing.assert_array_equal(got, _svd_below(d, e, (1.0,)))
        np.testing.assert_array_equal(got, [[False], [True]])

    def test_nothing_is_below_zero_or_nan(self):
        d, e = _graded(np.random.default_rng(8), 30, 4, 1)
        d[:10, 1] = 0.0
        got = channel._sigma_min_below(d, e, (0.0, -0.0, -2.0, -math.inf, math.nan))
        assert got.shape == (30, 5) and not got.any()

    def test_raises_no_floating_point_warnings(self):
        # Tier-1 turns warnings into errors; extreme grids must not warn.
        d, e = _graded(np.random.default_rng(9), 30, 5, 8)
        d[:5, 2] = 0.0
        grid = (5e-324, 1e-300, 1e300, 1e-300, 1.7e308, math.inf, math.inf)
        with np.errstate(all="raise"):
            got = channel._sigma_min_below(d, e, grid)
        np.testing.assert_array_equal(got, _svd_below(d, e, grid))

    def test_unsorted_grid_keeps_its_order(self):
        d, e = _graded(np.random.default_rng(10), 50, 4, 1)
        grid = np.array([0.5, 0.02, 3.0, 0.2, 0.02])
        got = channel._sigma_min_below(d, e, grid)
        order = np.argsort(grid)
        np.testing.assert_array_equal(got[:, order], channel._sigma_min_below(d, e, grid[order]))
        np.testing.assert_array_equal(got, _svd_below(d, e, grid))


def _exact_cdf(x, n):
    """``P[sigma_min < x]`` of a normalized ``n x n`` CN(0, 1) channel, for ``0 <= x <= sqrt(n)``.

    ``H = N G / ||G||_F``; ``N sigma_min(G)^2`` ~ Exp(1) (Edelman 1988) and
    ``||G||_F^2`` ~ Gamma(N^2, 1) is independent of ``G / ||G||_F``, so
    ``sigma_min(H)^2 / N`` ~ Beta(1, N^2 - 1).
    """
    return 1.0 - (1.0 - x * x / n) ** (n * n - 1)


def _z(hits, trials, p):
    """Binomial z-score of ``hits`` out of ``trials`` against the probability ``p``."""
    return (hits / trials - p) / np.sqrt(p * (1.0 - p) / trials)


class TestExactLaws:
    """The bidiagonal model and its Sturm counts against the exact law of the ensemble.

    Each z-score is a binomial count against its exact probability, and a
    test fails when some |z| exceeds 4.5: under the law that happens with
    probability below 7e-6 a point, so below 1e-4 for the 9 points of one
    test at a fresh seed.  At these seeds the largest |z| is 2.2.  A
    normalization scaled by 1.01 fails every test but one: the largest
    |z| is 11.9, 6.6 and 6.9 at N = 2, 4 and 8, and 5.1 and 5.8 for the
    acceptance at f = 0.3 and 0.6.  At N = 64 the 32768 trials reach 3.5
    for a 1% scale error, and fail at 2% (6.4).
    """

    @pytest.mark.parametrize("n, trials", [(2, 196608), (4, 196608), (8, 196608), (64, 32768)])
    def test_sigma_min_cdf(self, n, trials):
        p = np.array([0.02, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.98])
        grid = np.sqrt(n * (1.0 - (1.0 - p) ** (1.0 / (n * n - 1))))
        np.testing.assert_allclose(_exact_cdf(grid, n), p, rtol=1e-10)
        g = RngStream(31, (n,)).generator()
        hits = sum(
            np.count_nonzero(
                channel._sigma_min_below(*channel._normalized_bidiagonal(g, 8192, n), grid), axis=0
            )
            for _ in range(trials // 8192)
        )
        z = _z(hits, trials, p)
        assert np.max(np.abs(z)) <= 4.5, z

    @pytest.mark.parametrize("floor, count", [(0.3, 140000), (0.6, 50000)])
    def test_floored_acceptance(self, floor, count, monkeypatch):
        # Every candidate _floored_spectra draws gets one Sturm answer, and
        # is accepted with probability (1 - f^2/N)^(N^2 - 1).
        n, answers, kernel = 4, [], channel._sigma_min_below

        def recording(d, e, grid):
            answers.append(kernel(d, e, grid)[:, 0])
            return answers[-1][:, None]

        monkeypatch.setattr(channel, "_sigma_min_below", recording)
        s = channel._floored_spectra(RngStream(32).generator(), count, n, floor, 1000)
        assert s.shape == (count, n) and np.all(s[:, -1] >= floor)
        below = np.concatenate(answers)
        p = 1.0 - _exact_cdf(floor, n)
        z = _z(np.count_nonzero(~below), below.size, p)
        assert abs(z) <= 4.5, (below.size, z)


class TestNormalize:
    def test_identity_scales_to_sqrt2(self):
        real = channel.normalize(np.eye(2))
        np.testing.assert_allclose(real.matrix, np.sqrt(2.0) * np.eye(2))
        assert np.linalg.norm(real.matrix) ** 2 == pytest.approx(4.0)

    def test_idempotent(self):
        h = channel.sample_standard_gaussian(4, RngStream(5))
        once = channel.normalize(h)
        twice = channel.normalize(once.matrix)
        assert np.linalg.norm(twice.matrix - once.matrix) <= 1e-12 * np.linalg.norm(once.matrix)

    def test_power_constraint_via_independent_spectrum(self):
        h = channel.sample_standard_gaussian(4, RngStream(6))
        real = channel.normalize(h)
        recomputed = np.linalg.svd(real.matrix, compute_uv=False)
        assert float(np.sum(recomputed**2)) == pytest.approx(16.0, rel=1e-8)
        np.testing.assert_allclose(real.spectrum, recomputed, rtol=1e-10, atol=1e-12)

    def test_provenance(self):
        real = channel.normalize(np.eye(3))
        assert real.provenance == "normalized"

    def test_rejects_all_zero(self):
        # 1e-200 squares to 0 in double precision, so its norm is zero too
        for h in (np.zeros((2, 2)), np.full((2, 2), 1e-200)):
            with pytest.raises(DegenerateInputError):
                channel.normalize(h)

    H0 = np.array([[1.0, 0.3], [0.2, 0.9]])  # squared Frobenius norm 1.94

    @pytest.mark.parametrize("scale", [1e-160, 1e154, 1e160, 1e200])
    def test_rejects_a_squared_norm_outside_the_normal_floats(self, scale):
        with pytest.raises(DegenerateInputError):
            channel.normalize(scale * self.H0)

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_extreme_scales_inside_the_normal_floats(self, scale):
        real = channel.normalize(scale * self.H0)
        assert float(np.sum(real.spectrum**2)) == pytest.approx(4.0, abs=1e-12)

    def test_equals_the_runners_normalization(self):
        g = RngStream(22).generator()
        for n in (2, 3, 4, 8):
            stack = channel.complex_gaussian((50, n, n), g)
            runners = channel._normalized(stack)
            for m, expected in zip(stack, runners):
                np.testing.assert_array_equal(channel.normalize(m).matrix, expected)

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionError):
            channel.normalize(np.ones((2, 3)))


class TestSampleFloored:
    def test_zero_floor_accepts_first_draw(self):
        for seed in range(7, 12):
            stream = RngStream(seed, (3,))
            floored = channel.sample_floored(4, 0.0, stream)
            manual = channel.normalize(channel.sample_standard_gaussian(4, stream))
            np.testing.assert_array_equal(floored.matrix, manual.matrix)

    def test_floor_postcondition(self):
        real = channel.sample_floored(4, 0.3, RngStream(8))
        assert real.spectrum[-1] >= 0.3
        assert real.provenance == "floored"
        assert real.sigma_min == 0.3

    def test_normalization_preserved(self):
        real = channel.sample_floored(4, 0.3, RngStream(9))
        assert float(np.sum(real.spectrum**2)) == pytest.approx(16.0, rel=1e-8)

    def test_matrix_has_the_floored_spectrum(self):
        real = channel.sample_floored(4, 0.6, RngStream(9))
        np.testing.assert_allclose(
            np.linalg.svd(real.matrix, compute_uv=False), real.spectrum, rtol=1e-12
        )
        assert np.linalg.norm(real.matrix) ** 2 == pytest.approx(16.0, rel=1e-12)

    @pytest.mark.parametrize("floor", [2.5, 10.0])
    def test_unattainable_floor_raises_without_drawing(self, floor, monkeypatch):
        # sigma_N <= sqrt(N) = 2 for normalized 4x4 channels
        def no_draws(*args):
            raise AssertionError("a channel was drawn")

        monkeypatch.setattr(channel, "complex_gaussian", no_draws)
        with pytest.raises(SamplingExhaustedError) as err:
            channel.sample_floored(4, floor, RngStream(10))
        assert err.value.attempts == 0

    def test_exhaustion_raises(self):
        # feasible for N = 4 but far too improbable to be met in 50 draws
        with pytest.raises(SamplingExhaustedError) as err:
            channel.sample_floored(4, 1.9, RngStream(10), max_attempts=50)
        assert err.value.attempts == 50

    @pytest.mark.parametrize(
        "floor, max_attempts",
        [
            (math.nan, 10), (math.inf, 10), (-0.1, 10), (0.3, 0),
            (1.9, math.nan), (1.9, math.inf), (0.3, 2.5), (0.3, True),
        ],
    )
    def test_rejects_bad_floor_or_budget(self, floor, max_attempts):
        with pytest.raises(ValueError):
            channel.sample_floored(4, floor, RngStream(10), max_attempts=max_attempts)

    def test_acceptance_rate_matches_unconstrained_tail(self):
        # Estimate P[sigma_min >= 0.3] two ways: direct Monte Carlo on the
        # unconstrained ensemble (oracle) vs the fraction of single-attempt
        # floored draws that succeed.
        n, floor, trials = 4, 0.3, 3000
        base = RngStream(11)
        mins = np.array(
            [
                channel.normalize(channel.sample_standard_gaussian(n, base.child(0, i))).spectrum[-1]
                for i in range(trials)
            ]
        )
        p_oracle = float(np.mean(mins >= floor))
        accepted = 0
        for i in range(trials):
            try:
                channel.sample_floored(n, floor, base.child(1, i), max_attempts=1)
                accepted += 1
            except SamplingExhaustedError:
                pass
        p_rejection = accepted / trials
        se = math.sqrt(2 * p_oracle * (1 - p_oracle) / trials)
        assert abs(p_rejection - p_oracle) <= 3 * se


def _whole_block_reference(g, count, n, floor, max_attempts):
    """The dense block-wide rejection loop, kept as the reference.

    Every round decomposes the whole block again and redraws the rejected
    slots, in ascending order, as one stacked draw.
    """

    def normalized_block(k):
        raw = channel.complex_gaussian((k, n, n), g)
        return raw * (n / np.linalg.norm(raw, axis=(1, 2)))[:, None, None]

    h = normalized_block(count)
    attempts = 1
    while True:
        bad = np.linalg.svd(h, compute_uv=False)[:, -1] < floor
        n_bad = int(np.count_nonzero(bad))
        if n_bad == 0:
            return h
        attempts += 1
        if attempts > max_attempts:
            raise SamplingExhaustedError("exhausted", attempts=max_attempts)
        h[bad] = normalized_block(n_bad)


class TestFlooredBerLaw:
    """The floored BER runner, in factor form on ``diag(s) V^H``, against dense channels."""

    def test_factor_form_matches_the_dense_reference(self):
        n, floor, trials, snrs = 4, 0.3, 50000, (0.0, 10.0)
        table = experiments.run_ber_sweep(
            n, snrs, sigma_min_floor=floor, trials=trials, master_seed=21
        )
        g = RngStream(22).generator()
        h = _whole_block_reference(g, trials, n, floor, 1000)
        for snr in snrs:
            variance = experiments.noise_var_from_snr(snr, n).variance
            bits, x, noise = experiments._transmit(g, n, variance, trials)
            r = np.einsum("bij,bj->bi", h, x) + noise
            for detector, w in zip(("zf", "mmse"), _filters(h, 0.0, variance)):
                y = np.einsum("bij,bj->bi", w, r)
                errors = np.count_nonzero(qpsk_slice(y) != bits, axis=1) / (2 * n)
                [row] = table.select(detector=detector, snr_db=snr)
                se = float(np.std(errors, ddof=1)) / math.sqrt(trials)
                assert abs(row["ber"] - float(np.mean(errors))) <= 4 * math.hypot(row["se_ber"], se)


class _RecordingGenerator:
    """A Generator that records the ``size`` of every ``chisquare`` draw."""

    def __init__(self, g):
        self.g, self.sizes = g, []

    def chisquare(self, df, size):
        self.sizes.append(size)
        return self.g.chisquare(df, size=size)


def _candidates(sizes):
    """Candidates per rejection round: each round draws its diagonals, then its superdiagonals."""
    assert [m for _, m in sizes[1::2]] == [m - 1 for _, m in sizes[0::2]]
    return [k for k, _ in sizes[0::2]]


def _judged(g, n, floor, rounds):
    """The candidates of the same rounds, and whether each clears the floor by a dense SVD."""
    drawn = [channel._normalized_bidiagonal(g, k, n) for k in rounds]
    d, e = (np.concatenate(x) for x in zip(*drawn))
    return d, e, np.linalg.svd(_bidiagonal(d, e), compute_uv=False)[:, -1] >= floor


class TestFlooredSpectra:
    """``channel._floored_spectra``, the rejection kernel of every floored channel."""

    def test_each_accepted_channel_is_decomposed_once(self, monkeypatch):
        decomposed, svd = [], np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            decomposed.append(a.shape[0])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        g = _RecordingGenerator(RngStream(6).generator())
        s = channel._floored_spectra(g, 2000, 4, 0.5, 1000)
        # The rejections are extra chisquare draws, never extra decompositions.
        assert sum(decomposed) == 2000
        assert len(g.sizes) > 2 and sum(_candidates(g.sizes)) > 2000
        assert np.all(s[:, -1] >= 0.5)
        assert np.max(np.abs(np.sum(s * s, axis=1) - 16.0)) <= 1e-12 * 16.0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_slot_i_takes_the_ith_accepted_candidate(self, seed):
        stream, count, floor = RngStream(seed, (5,)), 3000, 0.6
        g = _RecordingGenerator(stream.generator())
        s = channel._floored_spectra(g, count, 4, floor, 1000)
        # Rebuild the schedule on the same stream, judged by a dense SVD: the
        # count, then what fills the open slots at the acceptance seen so far.
        ref, rounds, judged, accepted, k = stream.generator(), [], [], 0, count
        while True:
            rounds.append(k)
            judged.append(_judged(ref, 4, floor, [k]))
            accepted += int(np.count_nonzero(judged[-1][2]))
            if accepted >= count:
                break
            need = math.ceil((count - accepted) * sum(rounds) / accepted)
            k = min(need + 3 * math.isqrt(need) + 8, 2**15 // 4)
        assert _candidates(g.sizes) == rounds
        assert len(rounds) > 2  # about a quarter of the candidates clear 0.6
        d, e, ok = (np.concatenate(x) for x in zip(*judged))
        first = np.flatnonzero(ok)[:count]
        b = channel._normalized(_bidiagonal(d[first], e[first]))
        np.testing.assert_array_equal(s, np.linalg.svd(b, compute_uv=False))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_high_acceptance_takes_one_short_second_round(self, seed):
        # About 97% of N = 4 channels clear 0.1: the open slots after the first
        # round take one more round of a few hundred candidates, not 8192.
        g = _RecordingGenerator(RngStream(seed, (6,)).generator())
        channel._floored_spectra(g, 8192, 4, 0.1, 1000)
        rounds = _candidates(g.sizes)
        assert rounds[0] == 8192 and len(rounds) == 2 and rounds[1] < 500

    @pytest.mark.parametrize("count, n, budget, rounds", [
        (1, 4, 50, [1, 2, 4, 8, 16, 32]),  # doubling from one
        (1, 4, 20000, [2**i for i in range(14)] + [8192]),  # up to 2**15 // 4 candidates
        (3000, 4, 20000, [3000, 6000, 8192, 8192]),  # from the count
        (8192, 4, 20000, [8192, 8192, 8192]),
        (1, 64, 2000, [2**i for i in range(10)] + [512, 512]),  # up to 2**15 // 64
    ])
    def test_rounds_double_from_the_count_up_to_the_cap(self, count, n, budget, rounds):
        g = _RecordingGenerator(RngStream(11).generator())
        with pytest.raises(SamplingExhaustedError):
            channel._floored_spectra(g, count, n, 0.99 * math.sqrt(n), budget)
        assert _candidates(g.sizes) == rounds

    @pytest.mark.parametrize("count, n", [(1, 4), (8192, 4), (1024, 64)])
    def test_hopeless_floor_costs_the_budget_and_one_round(self, count, n):
        # No normalized channel comes near sigma_N = 0.99 sqrt(N).
        g = _RecordingGenerator(RngStream(12).generator())
        with pytest.raises(SamplingExhaustedError) as err:
            channel._floored_spectra(g, count, n, 0.99 * math.sqrt(n), 10**5)
        assert err.value.attempts == 10**5
        rounds = _candidates(g.sizes)
        assert sum(rounds) - rounds[-1] < 10**5 <= sum(rounds)

    @pytest.mark.parametrize("budget", [1, 10, 30, 100])
    def test_exhausted_when_a_run_of_rejections_reaches_the_budget(self, budget):
        # About 7% of the candidates clear 0.8 at N = 4, so runs cross rounds;
        # at this seed the budgets up to 30 run out and 100 does not.
        stream, count = RngStream(13), 40
        g = _RecordingGenerator(stream.generator())
        try:
            channel._floored_spectra(g, count, 4, 0.8, budget)
            exhausted = False
        except SamplingExhaustedError:
            exhausted = True
        *_, ok = _judged(stream.generator(), 4, 0.8, _candidates(g.sizes))
        run, taken = 0, 0
        for accepted in ok:
            run, taken = (0, taken + 1) if accepted else (run + 1, taken)
            if taken == count or run == budget:
                break
        assert exhausted == (run == budget)

    def test_spectra_do_not_depend_on_the_budget(self):
        a, b = (
            channel._floored_spectra(RngStream(3).generator(), 3000, 4, 0.6, budget)
            for budget in (10**3, 10**6)
        )
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n, floor", [(4, 0.3), (6, 0.2)])
    def test_law_matches_dense_rejection(self, n, floor):
        # Spectra of the first dense draws that clear the floor, against the
        # floored bidiagonal model: KS at level 0.001 on sigma_min and kappa.
        m = 12000
        dense = channel._normalized_draw(RngStream(2, (n,)).generator(), 3 * m, n)[1]
        dense = dense[dense[:, -1] >= floor]
        s = channel._floored_spectra(RngStream(1, (n,)).generator(), m, n, floor, 1000)
        critical = _ks_critical(m, dense.shape[0])
        assert _ks(s[:, -1], dense[:, -1]) <= critical
        assert _ks(s[:, 0] / s[:, -1], dense[:, 0] / dense[:, -1]) <= critical


class TestSynthesizeSpectrum:
    def test_cond_one_gives_equal_spectrum(self):
        real = channel.synthesize_spectrum(4, 1.0, 0.5, RngStream(12))
        np.testing.assert_allclose(real.spectrum, 0.5)
        s = np.linalg.svd(real.matrix, compute_uv=False)
        assert s[0] / s[-1] == pytest.approx(1.0, rel=1e-9)

    def test_prescribed_cond_and_floor(self):
        real = channel.synthesize_spectrum(4, 15.0, 0.1, RngStream(13))
        assert real.spectrum[0] == pytest.approx(1.5, rel=1e-12)
        assert real.spectrum[-1] == pytest.approx(0.1, rel=1e-12)
        s = np.linalg.svd(real.matrix, compute_uv=False)
        assert s[0] / s[-1] == pytest.approx(15.0, rel=1e-9)
        assert s[-1] == pytest.approx(0.1, rel=1e-9)

    def test_spectrum_matches_svd(self):
        real = channel.synthesize_spectrum(5, 7.0, 0.2, RngStream(14), interior="geometric")
        np.testing.assert_allclose(
            np.linalg.svd(real.matrix, compute_uv=False), real.spectrum, rtol=1e-10
        )

    def test_haar_factors_unitary(self):
        u = channel._phase_fixed_q(channel.complex_gaussian((6, 6), RngStream(15).generator()))
        np.testing.assert_allclose(linalg.gram(u), np.eye(6), atol=1e-10)

    def test_rejects_cond_below_one(self):
        with pytest.raises(ValueError):
            channel.synthesize_spectrum(4, 0.5, 0.1, RngStream(16))

    @pytest.mark.parametrize(
        "cond, sigma_min",
        [(math.nan, 0.1), (math.inf, 0.1), (2.0, math.nan), (2.0, math.inf), (2.0, 0.0),
         (1e300, 1e10)],
    )
    def test_rejects_non_finite_or_nonpositive_endpoints(self, cond, sigma_min):
        with pytest.raises(ValueError):
            channel.synthesize_spectrum(4, cond, sigma_min, RngStream(16))

    def test_rejects_unknown_interior(self):
        with pytest.raises(ValueError):
            channel.synthesize_spectrum(4, 2.0, 0.1, RngStream(17), interior="linear")


class TestSampleNoise:
    """``channel.complex_gaussian`` at variance v: the noise of the BER runner and the oracle."""

    def test_zero_variance_gives_zero_vector(self):
        n = channel.complex_gaussian(16, RngStream(18).generator(), 0.0)
        assert np.all(n == 0)

    def test_moment(self):
        # 10^6 draws at variance 0.5: mean |n|^2 within half a percent
        n = channel.complex_gaussian(10**6, RngStream(19).generator(), 0.5)
        assert 0.4975 <= float(np.mean(np.abs(n) ** 2)) <= 0.5025

    @pytest.mark.parametrize("variance", [0.0, 0.3, 1.0, 1e300])
    @pytest.mark.parametrize("shape", [16, (8, 4), (3, 5, 5)])
    def test_equals_the_scaled_sum_of_two_draws(self, shape, variance):
        g = RngStream(21).generator()
        re, im = g.standard_normal(shape), g.standard_normal(shape)
        expected = math.sqrt(variance * 0.5) * (re + 1j * im)
        n = channel.complex_gaussian(shape, RngStream(21).generator(), variance)
        assert n.dtype == np.complex128
        assert n.tobytes() == expected.tobytes()

    def test_deterministic(self):
        a = channel.complex_gaussian((8, 4), RngStream(20, (4,)).generator(), 1.0)
        b = channel.complex_gaussian((8, 4), RngStream(20, (4,)).generator(), 1.0)
        assert np.array_equal(a, b)
