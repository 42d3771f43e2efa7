import math

import numpy as np
import pytest

from lindet import channel, linalg
from lindet.channel import NoiseModel, RngStream
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


class TestGaussianSpectra:
    @pytest.mark.parametrize("n", [2, 4, 12, 64])
    def test_descending_positive_and_normalized(self, n):
        s = channel._gaussian_spectra(RngStream(n).generator(), 300, n, 2)
        assert s.shape == (300, n)
        assert np.all(s[:, -1] > 0.0) and np.all(np.diff(s, axis=1) <= 0.0)
        assert np.max(np.abs(np.sum(s * s, axis=1) - n * n)) <= 1e-12 * n * n

    @pytest.mark.parametrize("beta", [1, 2])
    def test_unnormalized_entries_have_unit_variance(self, beta):
        # sum(s^2) = ||H||_F^2 is chi^2 with beta n^2 degrees of freedom over
        # beta: mean n^2, sd n sqrt(2 / beta); 4000 draws pin the mean to 1%.
        s = channel._gaussian_spectra(RngStream(30 + beta).generator(), 4000, 6, beta, normalized=False)
        assert np.mean(np.sum(s * s, axis=1)) == pytest.approx(36.0, rel=0.01)

    def test_same_generator_state_same_spectra(self):
        a = channel._gaussian_spectra(RngStream(5, (1,)).generator(), 50, 8, 2)
        b = channel._gaussian_spectra(RngStream(5, (1,)).generator(), 50, 8, 2)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n", [4, 12])
    def test_complex_law_matches_dense_draws(self, n):
        m = 20000
        s = channel._gaussian_spectra(RngStream(1, (n,)).generator(), m, n, 2)
        d = _dense_spectra(RngStream(2, (n,)).generator(), m, n, 2)
        critical = _ks_critical(m, m)
        assert _ks(s[:, -1], d[:, -1]) <= critical
        assert _ks(s[:, 0] / s[:, -1], d[:, 0] / d[:, -1]) <= critical

    def test_real_law_matches_dense_draws(self):
        m = 20000
        s = channel._gaussian_spectra(RngStream(1, (8,)).generator(), m, 8, 1, normalized=False)
        d = _dense_spectra(RngStream(2, (8,)).generator(), m, 8, 1)
        assert _ks(s[:, -1], d[:, -1]) <= _ks_critical(m, m)

    def test_ks_tells_the_real_from_the_complex_ensemble(self):
        # The check above has power: at 4x4 the real and complex normalized
        # ensembles are told apart at the same sample size.
        m = 20000
        real = channel._gaussian_spectra(RngStream(3).generator(), m, 4, 1)
        d = _dense_spectra(RngStream(2, (4,)).generator(), m, 4, 2)
        assert _ks(real[:, -1], d[:, -1]) > 5 * _ks_critical(m, m)

    def test_real_n64_scaled_tail(self):
        # P[N sigma_min >= x] for entries of variance 1/N, against
        # exp(-x - x^2/2) at the acceptance suite's tolerance.
        s = channel._gaussian_spectra(RngStream(4).generator(), 8192, 64, 1, normalized=False)
        scaled = 8.0 * s[:, -1]
        for x in (0.5, 1.0, 2.0):
            assert abs(np.mean(scaled >= x) - math.exp(-x - x * x / 2)) <= 0.03


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
        "floor, max_attempts", [(math.nan, 10), (math.inf, 10), (-0.1, 10), (0.3, 0)]
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
    """The former block-wide rejection loop, kept as the reference.

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


class TestFlooredStack:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_whole_block_reference(self, seed):
        stream = RngStream(seed, (5,))
        h, s = channel._floored_stack(stream.generator(), 3000, 4, 0.3, 1000)
        expected = _whole_block_reference(stream.generator(), 3000, 4, 0.3, 1000)
        np.testing.assert_array_equal(h, expected)
        np.testing.assert_array_equal(s, np.linalg.svd(h, compute_uv=False))
        assert np.all(s[:, -1] >= 0.3)

    def test_decomposes_each_draw_once(self, monkeypatch):
        drawn, decomposed = [], []
        draw, svd = channel.complex_gaussian, np.linalg.svd

        def recording_draw(shape, g):
            drawn.append(shape[0])
            return draw(shape, g)

        def recording_svd(a, *args, **kwargs):
            decomposed.append(a.shape[0])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(channel, "complex_gaussian", recording_draw)
        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        channel._floored_stack(RngStream(6).generator(), 2000, 4, 0.5, 1000)
        assert len(drawn) > 1 and sum(drawn) > 2000
        assert sum(decomposed) == sum(drawn)


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
        u = channel.haar_unitary(6, RngStream(15).generator())
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
    """``channel._cn_noise``, the CN(0, v) draw of the BER runner and the oracle."""

    def test_zero_variance_gives_zero_vector(self):
        n = channel._cn_noise(16, 0.0, RngStream(18).generator())
        assert np.all(n == 0)

    def test_moment(self):
        # 10^6 draws at variance 0.5: mean |n|^2 within half a percent
        n = channel._cn_noise(10**6, 0.5, RngStream(19).generator())
        assert 0.4975 <= float(np.mean(np.abs(n) ** 2)) <= 0.5025

    def test_deterministic(self):
        a = channel._cn_noise((8, 4), 1.0, RngStream(20, (4,)).generator())
        b = channel._cn_noise((8, 4), 1.0, RngStream(20, (4,)).generator())
        assert np.array_equal(a, b)
