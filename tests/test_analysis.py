import dataclasses
import math

import numpy as np
import pytest

from lindet import analysis, channel, detection, experiments, linalg
from lindet.channel import (
    NoiseModel,
    RngStream,
    _phase_fixed_q,
    complex_gaussian,
    synthesize_spectrum,
)
from lindet.exceptions import DimensionError, SingularMatrixError
from lindet.experiments import noise_var_from_snr

# Hand-evaluated constants for the worked example: sigma^2 = (3, 1), v = 0.1.
WORKED_SPECTRUM = np.array([math.sqrt(3.0), 1.0])
WORKED_A = 3.5225015264746604
WORKED_B = 1.7629707346858041
WORKED_C = 1.1386210988897585
WORKED_SNR_MMSE = 15.319042871385843
WORKED_GAIN_DB = 0.09140372516297657

# The floating-point errors NumPy warns about by default; underflow is silent.
RAISE_ON_WARNINGS = dict(divide="raise", over="raise", invalid="raise")

# Scales of TestGuardScaleLimits.H0 that the public filters' guard accepts.
GUARD_SCALES_IN_RANGE = (1e-153, 1e-150, 1.0, 1e150, 1e153)


class TestWeylLowerBound:
    def test_identity_perturbation_is_tight(self):
        # Sigma = diag(4,1) + Delta = I: sigma_1 of the sum is exactly 5
        assert analysis.weyl_lower_bound(1, [4.0, 1.0], [1.0, 1.0]) == 5.0

    def test_family_maximum(self):
        assert analysis.weyl_lower_bound(1, [3.0, 1.0], [2.0, 0.5]) == 3.5

    def test_zero_perturbation(self):
        sig = [2.5, 1.5, 0.5]
        for i in (1, 2, 3):
            assert analysis.weyl_lower_bound(i, sig, [0.0, 0.0, 0.0]) == sig[i - 1]

    def test_validity_on_random_psd_pairs(self):
        g = RngStream(60).generator()
        for _ in range(200):
            n = int(g.integers(2, 7))
            sigma = linalg.gram(complex_gaussian((n, n), g))
            delta = linalg.gram(complex_gaussian((n, n), g))
            s_sum = linalg.singular_values(sigma + delta)
            s_sigma = linalg.singular_values(sigma)
            s_delta = linalg.singular_values(delta)
            for i in range(1, n + 1):
                bound = analysis.weyl_lower_bound(i, s_sigma, s_delta)
                assert s_sum[i - 1] >= bound - 1e-9

    def test_stacked_kernel_equals_the_per_index_bound(self):
        g = RngStream(59).generator()
        for n in (1, 2, 3, 5, 8):
            sig = np.sort(g.uniform(0.0, 4.0, size=(40, n)))[:, ::-1]
            dlt = np.sort(g.uniform(0.0, 4.0, size=(40, n)))[:, ::-1]
            bounds = analysis._weyl_bounds(sig, dlt)
            assert bounds.shape == (40, n)
            for k in range(40):
                for i in range(1, n + 1):
                    # the k-th family member pairs sig[i-1+k] with dlt[n-1-k]
                    family = sig[k, i - 1:] + dlt[k, ::-1][: n - i + 1]
                    assert bounds[k, i - 1] == np.max(family)
                    assert bounds[k, i - 1] == analysis.weyl_lower_bound(i, sig[k], dlt[k])

    def test_index_out_of_range(self):
        # the index follows the count rule; a count outside 1..N is an IndexError
        for i in (3, 0, -1):
            with pytest.raises(IndexError):
                analysis.weyl_lower_bound(i, [2.0, 1.0], [1.0, 0.5])
        for i in (True, 1.5, "1", math.nan):
            with pytest.raises(ValueError, match="index must be an integer"):
                analysis.weyl_lower_bound(i, [2.0, 1.0], [1.0, 0.5])
        assert analysis.weyl_lower_bound(2.0, [2.0, 1.0], [1.0, 0.5]) == 1.5

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            analysis.weyl_lower_bound(1, [2.0, 1.0], [1.0])


class TestCondRatioApprox:
    def test_zero_noise_is_one(self):
        assert analysis.cond_ratio_approx(2.0, 0.5, NoiseModel(0.0)) == 1.0

    def test_orthogonal_channel_is_one(self):
        assert analysis.cond_ratio_approx(1.3, 1.3, NoiseModel(0.7)) == pytest.approx(1.0)

    def test_worked_example(self):
        # (1 + 0.1/2.25) / (1 + 0.1/0.01) = 1.04444.../11
        ratio = analysis.cond_ratio_approx(1.5, 0.1, NoiseModel(0.1))
        assert ratio == pytest.approx(0.09494949494949495, rel=1e-12)
        assert ratio * 15.0 == pytest.approx(1.4242424242424243, rel=1e-12)

    def test_always_at_most_one(self):
        g = RngStream(61).generator()
        for _ in range(200):
            sn = float(g.uniform(0.01, 2.0))
            s1 = sn * float(g.uniform(1.0, 50.0))
            v = float(g.uniform(0.0, 10.0))
            assert analysis.cond_ratio_approx(s1, sn, NoiseModel(v)) <= 1.0

    def test_zero_sigma_n_raises(self):
        with pytest.raises(SingularMatrixError):
            analysis.cond_ratio_approx(1.0, 0.0, NoiseModel(0.1))

    @pytest.mark.parametrize(
        "s1, sn",
        [(0.5, 1.0), (math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan), (math.inf, math.inf)],
        ids=["unordered", "inf", "nan-sigma-1", "nan-sigma-n", "both-inf"],
    )
    def test_unordered_or_non_finite_raises(self, s1, sn):
        with pytest.raises(ValueError, match="need finite sigma_1 >= sigma_n > 0"):
            analysis.cond_ratio_approx(s1, sn, NoiseModel(0.1))

    def test_stacked_kernel_is_the_scalar_formula(self):
        g = RngStream(58).generator()
        sn = g.uniform(0.01, 2.0, size=50)
        s1 = sn * g.uniform(1.0, 50.0, size=50)
        v = g.uniform(0.0, 10.0, size=50)
        stacked = analysis._cond_ratio_approx(s1, sn, v)
        for k in range(50):
            scalar = analysis.cond_ratio_approx(s1[k], sn[k], NoiseModel(v[k]))
            assert stacked[k] == scalar


class TestCondRatioExact:
    def test_unitary_channel(self):
        u = _phase_fixed_q(complex_gaussian((4, 4), RngStream(62).generator()))
        report = analysis.cond_ratio_exact(u, NoiseModel(0.7))
        assert report.exact_ratio == pytest.approx(1.0, abs=1e-9)
        assert report.cond_w_zf == pytest.approx(1.0, abs=1e-9)

    def test_zero_noise(self):
        h = complex_gaussian((4, 4), RngStream(63).generator())
        report = analysis.cond_ratio_exact(h, NoiseModel(0.0))
        assert report.exact_ratio == pytest.approx(1.0, abs=1e-9)

    def test_report_consistency(self):
        h = complex_gaussian((4, 4), RngStream(64).generator())
        report = analysis.cond_ratio_exact(h, NoiseModel(0.3))
        assert report.exact_ratio == pytest.approx(
            report.cond_w_mmse / report.cond_w_zf, rel=1e-10
        )

    def test_synthesized_channel_matches_approx_within_ten_percent(self):
        real = synthesize_spectrum(4, 15.0, 0.3, RngStream(65))
        report = analysis.cond_ratio_exact(real.matrix, NoiseModel(0.1))
        assert abs(report.exact_ratio - report.approx_ratio) / report.exact_ratio <= 0.10

    def test_equals_the_spectral_kernel(self):
        h = complex_gaussian((4, 4), RngStream(66).generator())
        report = analysis.cond_ratio_exact(h, NoiseModel(0.3))
        s = np.linalg.svd(h, compute_uv=False)
        cond_zf, cond_mmse = analysis._spectral_conds(s, 0.0, 0.3).tolist()
        assert report.cond_w_zf == cond_zf
        assert report.cond_w_mmse == cond_mmse
        assert report.exact_ratio == cond_mmse / cond_zf

    @pytest.mark.parametrize(
        "case",
        [None, *GUARD_SCALES_IN_RANGE, *[
            (interior, n, sigma_min)
            for interior in ("top", "geometric") for n in (4, 64) for sigma_min in (0.05, 0.3, 2.0)
        ]],
        ids=lambda case: "-".join(map(str, case)) if isinstance(case, tuple) else None,
    )
    def test_spectral_kernel_matches_the_built_filters(self, case):
        # the closed form against the SVD of the filters it describes, over
        # random channels, at the extreme scales the guard lets through, and
        # over channels U diag(s) V^H synthesized on condratio's prescribed
        # spectra, whose closed form is taken on s itself
        g = RngStream(68).generator()
        if isinstance(case, tuple):
            interior, n, sigma_min = case
            spectrum = channel._spectrum_profile(n, 15.0, sigma_min, interior)
            h = np.stack([channel._synthesized(spectrum, g) for _ in range(16)])
            s, variance, rtol = np.broadcast_to(spectrum, (16, n)), 0.1, 1e-12
        else:
            if case is None:
                h = complex_gaussian((50, 5, 5), g)
                variance = g.uniform(1e-3, 5.0, size=50)
            else:
                h, variance = case * TestGuardScaleLimits.H0[None], 0.1
            s, rtol = np.linalg.svd(h, compute_uv=False), 1e-9
        closed = analysis._spectral_conds(s, 0.0, variance)
        np.testing.assert_allclose(analysis._filter_conds(h, variance), closed, rtol=rtol)

    @pytest.mark.parametrize(
        "h, error",
        [
            (np.ones((2, 3)), DimensionError),
            (np.array([[1.0, np.inf], [0.0, 1.0]]), ValueError),
            (np.diag([1.0, 0.0]), SingularMatrixError),
            (np.ones((3, 3)), SingularMatrixError),
        ],
        ids=["not-square", "inf", "singular", "rank-one"],
    )
    def test_bad_channels_raise(self, h, error):
        with pytest.raises(error):
            analysis.cond_ratio_exact(h, NoiseModel(0.3))

    def test_underflowing_mmse_filter_raises(self):
        # W_mmse ~ H^H / v underflows to zero: no condition number
        h = 1e-150 * complex_gaussian((4, 4), RngStream(67).generator())
        with pytest.raises(SingularMatrixError):
            analysis.cond_ratio_exact(h, NoiseModel(1e300))


class TestGuardScaleLimits:
    """The guard of the public filters rejects a channel whose Gram spectrum
    ``s_i^2`` leaves the normal floats, and keeps every scale inside."""

    H0 = np.array([[1.0, 0.3], [0.2, 0.9]])  # cond 1.732, s_i^2 = 1.455 and 0.485

    @pytest.mark.parametrize("scale", [1e-161, 1e-158, 1e-156, 1e-154, 1e155, 1e160])
    def test_gram_spectrum_out_of_range_raises(self, scale):
        with pytest.raises(SingularMatrixError):
            detection.zf_filter(scale * self.H0)
        with pytest.raises(SingularMatrixError):
            analysis.cond_ratio_exact(scale * self.H0, NoiseModel(0.1))

    @pytest.mark.parametrize("scale", GUARD_SCALES_IN_RANGE)
    def test_scales_in_range_are_exact(self, scale):
        h = scale * self.H0
        np.testing.assert_allclose(detection.zf_filter(h).matrix @ h, np.eye(2), atol=1e-14)
        report = analysis.cond_ratio_exact(h, NoiseModel(0.1))
        assert report.cond_w_zf == pytest.approx(np.linalg.cond(self.H0), rel=1e-12)


class TestSnrZf:
    def test_orthogonal_channel(self):
        # Equal spectrum sigma_i^2 = N: SNR is N / variance
        n, v = 4, 0.5
        spectrum = np.full(n, math.sqrt(n))
        assert analysis.snr_zf(spectrum, NoiseModel(v)) == pytest.approx(n / v)

    def test_worked_example(self):
        assert analysis.snr_zf(WORKED_SPECTRUM, NoiseModel(0.1)) == pytest.approx(15.0, rel=1e-12)

    def test_zero_noise_infinite(self):
        assert analysis.snr_zf([2.0, 1.0], NoiseModel(0.0)) == math.inf

    def test_singular_spectrum_raises(self):
        with pytest.raises(SingularMatrixError):
            analysis.snr_zf([1.0, 0.0], NoiseModel(0.1))

    def test_negligible_spectrum_reads_zero_without_warnings(self):
        with np.errstate(**RAISE_ON_WARNINGS):
            assert analysis.snr_zf([1e-170, 1e-170], NoiseModel(1.0)) == 0.0

    def test_answers_beyond_the_mmse_scale_rule(self):
        with np.errstate(**RAISE_ON_WARNINGS):
            assert analysis.snr_zf([1e100, 1e100], NoiseModel(1.0)) == pytest.approx(1e200)


class TestMmseAbc:
    def test_zero_noise_reduces(self):
        spectrum = np.array([2.0, 1.0, 0.5])
        abc = analysis.mmse_abc(spectrum, NoiseModel(0.0))
        assert abc.a == pytest.approx(9.0)
        assert abc.b == pytest.approx(3.0)
        assert abc.c == pytest.approx(float(np.sum(1.0 / spectrum**2)))

    def test_worked_example(self):
        abc = analysis.mmse_abc(WORKED_SPECTRUM, NoiseModel(0.1))
        assert abc.a == pytest.approx(WORKED_A, rel=1e-12)
        assert abc.b == pytest.approx(WORKED_B, rel=1e-12)
        assert abc.c == pytest.approx(WORKED_C, rel=1e-12)

    def test_cauchy_schwarz_a_ge_b(self):
        g = RngStream(66).generator()
        for _ in range(500):
            n = int(g.integers(1, 9))
            spectrum = np.sort(g.uniform(0.01, 4.0, size=n))[::-1]
            v = float(g.uniform(0.0, 5.0))
            abc = analysis.mmse_abc(spectrum, NoiseModel(v))
            assert abc.a >= abc.b - 1e-12

    def test_zero_spectrum_zero_noise_raises(self):
        with pytest.raises(SingularMatrixError):
            analysis.mmse_abc([1.0, 0.0], NoiseModel(0.0))


class TestSnrMmse:
    def test_zero_noise_infinite_by_cancellation(self):
        assert analysis.snr_mmse([2.0, 1.0], NoiseModel(0.0)) == math.inf

    def test_worked_example(self):
        assert analysis.snr_mmse(WORKED_SPECTRUM, NoiseModel(0.1)) == pytest.approx(
            WORKED_SNR_MMSE, rel=1e-12
        )

    def test_ratio_decreases_to_one_as_noise_vanishes(self):
        spectrum = np.array([1.8, 1.1, 0.4])
        ratios = []
        for v in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            ratio = analysis.snr_mmse(spectrum, NoiseModel(v)) / analysis.snr_zf(
                spectrum, NoiseModel(v)
            )
            assert ratio >= 1.0 - 1e-12
            ratios.append(ratio)
        assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] <= 1.0 + 1e-4


    @pytest.mark.parametrize("snr_db", [130.0, 150.0])
    def test_finite_at_high_finite_snr(self, snr_db):
        # the denominator is small but positive; only zero noise gives inf
        noise = noise_var_from_snr(snr_db, 2)
        m = analysis.snr_mmse([1.5, 0.5], noise)
        assert math.isfinite(m)
        assert m / analysis.snr_zf([1.5, 0.5], noise) == pytest.approx(1.0, abs=1e-9)


    @pytest.mark.parametrize("spectrum", [[0.0, 0.0], [1e-170, 1e-170]])
    def test_channel_carrying_nothing_reads_zero(self, spectrum):
        # a + b and the denominator are both 0; the formula tends to 0 as s -> 0
        with np.errstate(**RAISE_ON_WARNINGS):
            assert analysis.snr_mmse(spectrum, NoiseModel(1.0)) == 0.0

    def test_zero_noise_infinite_when_a_square_is_subnormal(self):
        # s_N^2 = 1e-320 is nonzero, but c = sum 1/s_i^2 overflows
        with np.errstate(**RAISE_ON_WARNINGS):
            assert analysis.snr_mmse([1.0, 1e-160], NoiseModel(0.0)) == math.inf


class TestMmseScaleRule:
    """``snr_mmse`` and ``mmse_abc`` take ``s_1^2 + v`` up to sqrt(max double), about 1.34e154."""

    @pytest.mark.parametrize(
        "spectrum, variance, expected", [([1e77, 1.0], 1.0, 3.5), ([1.0, 1.0], 1e150, 1e-150)]
    )
    def test_inside_the_rule(self, spectrum, variance, expected):
        with np.errstate(**RAISE_ON_WARNINGS):
            assert analysis.snr_mmse(spectrum, NoiseModel(variance)) == pytest.approx(
                expected, rel=1e-15
            )

    def test_edge_of_the_rule(self):
        edge = math.sqrt(np.finfo(float).max)
        with np.errstate(**RAISE_ON_WARNINGS):
            abc = analysis.mmse_abc([1.0, 1.0], NoiseModel(edge))
        assert 0.0 < abc.c < math.inf
        with pytest.raises(ValueError, match="overflows"):
            analysis.mmse_abc([1.0, 1.0], NoiseModel(math.nextafter(edge, math.inf)))

    @pytest.mark.parametrize(
        "spectrum, variance", [([1e100, 1e100], 1.0), ([1.0, 1.0], 1e160), ([1e160, 1.0], 1.0)]
    )
    @pytest.mark.parametrize("function", [analysis.snr_mmse, analysis.mmse_abc])
    def test_outside_the_rule_raises(self, function, spectrum, variance):
        with np.errstate(**RAISE_ON_WARNINGS), pytest.raises(ValueError, match="overflows"):
            function(spectrum, NoiseModel(variance))


class TestBatchedSnrKernels:
    def test_per_spectrum_variances_match_one_spectrum_calls(self):
        g = RngStream(68).generator()
        spectra = np.sort(g.uniform(0.05, 3.0, size=(9, 4)))[:, ::-1]
        variances = g.uniform(1e-4, 10.0, size=9)
        zf, mmse, sums = analysis._snr_sums(spectra, variances)
        for k, v in enumerate(variances):
            one = spectra[k : k + 1]
            one_zf, one_mmse, one_sums = analysis._snr_sums(one, v)
            assert zf[k] == one_zf[0] == analysis.snr_zf(spectra[k], NoiseModel(v))
            assert mmse[k] == one_mmse[0]
            assert [x[k] for x in sums] == [x[0] for x in one_sums]

    def test_stack_matches_scalar_api(self):
        g = RngStream(67).generator()
        spectra = -np.sort(-g.uniform(0.05, 3.0, size=(7, 5)), axis=1)
        v = 0.2
        zf, mmse, (a, b, c) = analysis._snr_sums(spectra, v)
        assert zf.shape == mmse.shape == a.shape == (7,)
        for k, s in enumerate(spectra):
            noise = NoiseModel(v)
            assert zf[k] == analysis.snr_zf(s, noise)
            # one spectrum and a stack square sum(t) alike, by multiplication
            abc = analysis.mmse_abc(s, noise)
            assert (a[k], b[k], c[k]) == (abc.a, abc.b, abc.c)
            assert mmse[k] == analysis.snr_mmse(s, noise)


class TestGainDb:
    def test_equal_inputs(self):
        assert analysis.gain_db(3.7, 3.7) == pytest.approx(0.0)

    def test_worked_example(self):
        assert analysis.gain_db(WORKED_SNR_MMSE, 15.0) == pytest.approx(
            WORKED_GAIN_DB, rel=1e-12
        )

    def test_ratio_ten(self):
        assert analysis.gain_db(10.0, 1.0) == pytest.approx(10.0)

    def test_infinite_marker_propagation(self):
        assert analysis.gain_db(math.inf, math.inf) == 0.0
        assert analysis.gain_db(math.inf, 5.0) == math.inf
        assert analysis.gain_db(5.0, math.inf) == -math.inf

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            analysis.gain_db(0.0, 1.0)

    def test_stacked_kernel_carries_the_limits(self):
        m = np.array([math.inf, math.inf, 5.0, 10.0])
        z = np.array([math.inf, 5.0, math.inf, 1.0])
        assert analysis._gain_db(m, z).tolist() == [0.0, math.inf, -math.inf, 10.0]

    def test_public_gain_is_the_stacked_kernel(self):
        g = RngStream(69).generator()
        m, z = g.uniform(0.1, 100.0, size=(2, 50))
        assert [analysis.gain_db(a, b) for a, b in zip(m, z)] == analysis._gain_db(m, z).tolist()


class TestEdelmanTail:
    def test_at_zero(self):
        assert analysis.edelman_tail(0.0) == 1.0

    def test_closed_form_at_one(self):
        assert analysis.edelman_tail(1.0) == pytest.approx(0.22313016014842982, rel=1e-12)

    def test_strictly_decreasing(self):
        xs = np.linspace(0.0, 4.0, 41)
        vals = [analysis.edelman_tail(x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            analysis.edelman_tail(-0.1)


def test_analysis_draws_nothing():
    # the closed forms take spectra; every Monte Carlo estimate is in experiments
    sampling = {"RngStream", "complex_gaussian", "qpsk_modulate"}
    assert not sampling & set(vars(analysis))


class TestEmpiricalDistortionSnr:
    def test_zf_matches_closed_form_on_diagonal_channel(self):
        h = np.diag(WORKED_SPECTRUM).astype(complex)
        noise = NoiseModel(0.1)
        w = detection.zf_filter(h)
        value = experiments.empirical_distortion_snr(h, w, noise, 100000, RngStream(67))
        assert value == pytest.approx(15.0, rel=0.02)

    def test_noiseless_zf_infinite(self):
        h = np.diag([2.0, 1.0]).astype(complex)
        w = detection.zf_filter(h)
        value = experiments.empirical_distortion_snr(h, w, NoiseModel(0.0), 100, RngStream(68))
        assert value == math.inf

    def test_mmse_matches_error_covariance_trace(self):
        # Analytic MSE for the MMSE filter is v * sum(1/(s_i^2 + v)):
        # here 2 / (0.1 * (1/3.1 + 1/1.1)) = 16.238095...
        h = np.diag(WORKED_SPECTRUM).astype(complex)
        noise = NoiseModel(0.1)
        w = detection.mmse_filter(h, noise)
        value = experiments.empirical_distortion_snr(h, w, noise, 100000, RngStream(69))
        assert value == pytest.approx(16.238095238095237, rel=0.02)
        # ... which deliberately differs from the closed-form 15.319
        assert abs(value - WORKED_SNR_MMSE) / WORKED_SNR_MMSE > 0.03

    def test_deterministic(self):
        h = np.diag([1.5, 1.0]).astype(complex)
        w = detection.zf_filter(h)
        a = experiments.empirical_distortion_snr(h, w, NoiseModel(0.2), 5000, RngStream(70))
        b = experiments.empirical_distortion_snr(h, w, NoiseModel(0.2), 5000, RngStream(70))
        assert a == b

    def test_rejects_bad_trials(self):
        h = np.eye(2)
        w = detection.zf_filter(h)
        with pytest.raises(ValueError):
            experiments.empirical_distortion_snr(h, w, NoiseModel(0.1), 0, RngStream(71))

    def test_trials_are_checked_like_a_runners(self):
        # An integral float counts as an integer; any other non-integer is a ValueError.
        h = np.eye(2)
        w = detection.zf_filter(h)
        args = (h, w, NoiseModel(0.1))
        exact = experiments.empirical_distortion_snr(*args, 100, RngStream(72))
        assert experiments.empirical_distortion_snr(*args, 100.0, RngStream(72)) == exact
        for trials in (2.5, True):
            with pytest.raises(ValueError, match="trials must be an integer"):
                experiments.empirical_distortion_snr(*args, trials, RngStream(72))

    @pytest.mark.parametrize(
        "rows", [np.s_[:1], 0, np.s_[:3]], ids=["first-row", "one-axis", "three-rows"]
    )
    def test_rejects_a_filter_not_of_the_channel_shape(self, rows, monkeypatch):
        # a (1, 4) filter broadcasts against x and would return a value
        monkeypatch.setattr(experiments, "_run_blocks", lambda *a: pytest.fail("a block ran"))
        h = channel.normalize(channel.sample_standard_gaussian(4, RngStream(73))).matrix
        w = detection.zf_filter(h)
        cut = dataclasses.replace(w, matrix=w.matrix[rows])
        with pytest.raises(DimensionError, match="filter has shape"):
            experiments.empirical_distortion_snr(h, cut, NoiseModel(0.1), 100, RngStream(74))
