import math

import numpy as np
import pytest

from lindet import analysis, detection, linalg
from lindet.channel import (
    NoiseModel,
    RngStream,
    complex_gaussian,
    haar_unitary,
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
        with pytest.raises(IndexError):
            analysis.weyl_lower_bound(3, [2.0, 1.0], [1.0, 0.5])

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


class TestCondRatioExact:
    def test_unitary_channel(self):
        u = haar_unitary(4, RngStream(62).generator())
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


    def test_equals_the_stacked_kernel(self):
        h = complex_gaussian((4, 4), RngStream(66).generator())
        report = analysis.cond_ratio_exact(h, NoiseModel(0.3))
        cond_zf, cond_mmse = analysis._filter_conds(h[None], 0.3)
        assert report.cond_w_zf == float(cond_zf[0])
        assert report.cond_w_mmse == float(cond_mmse[0])
        assert report.exact_ratio == float(cond_mmse[0]) / float(cond_zf[0])

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

    @pytest.mark.parametrize("scale", [1e-153, 1e-150, 1.0, 1e150, 1e153])
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


class TestBatchedSnrKernels:
    def test_per_spectrum_variances_match_one_spectrum_calls(self):
        g = RngStream(68).generator()
        spectra = np.sort(g.uniform(0.05, 3.0, size=(9, 4)))[:, ::-1]
        variances = g.uniform(1e-4, 10.0, size=9)
        zf = analysis._zf_snr(spectra, variances)
        terms = analysis._mmse_snr_terms(spectra, variances)
        sums = analysis._spectral_sums(spectra, variances)
        for k, v in enumerate(variances):
            one = spectra[k : k + 1]
            assert zf[k] == analysis._zf_snr(one, v)[0] == analysis.snr_zf(spectra[k], NoiseModel(v))
            assert [x[k] for x in terms] == [x[0] for x in analysis._mmse_snr_terms(one, v)]
            assert [x[k] for x in sums] == [x[0] for x in analysis._spectral_sums(one, v)]

    def test_stack_matches_scalar_api(self):
        g = RngStream(67).generator()
        spectra = -np.sort(-g.uniform(0.05, 3.0, size=(7, 5)), axis=1)
        v = 0.2
        zf = analysis._zf_snr(spectra, v)
        numerator, denominator = analysis._mmse_snr_terms(spectra, v)
        a, b, c = analysis._spectral_sums(spectra, v)
        assert zf.shape == numerator.shape == a.shape == (7,)
        for k, s in enumerate(spectra):
            noise = NoiseModel(v)
            assert zf[k] == analysis.snr_zf(s, noise)
            # a stack squares sum(t) by multiplication, one spectrum by pow()
            abc = analysis.mmse_abc(s, noise)
            assert (a[k], b[k], c[k]) == pytest.approx((abc.a, abc.b, abc.c), rel=1e-15)
            assert numerator[k] / denominator[k] == pytest.approx(
                analysis.snr_mmse(s, noise), rel=1e-13
            )


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


class TestEmpiricalDistortionSnr:
    def test_zf_matches_closed_form_on_diagonal_channel(self):
        h = np.diag(WORKED_SPECTRUM).astype(complex)
        noise = NoiseModel(0.1)
        w = detection.zf_filter(h)
        value = analysis.empirical_distortion_snr(h, w, noise, 100000, RngStream(67))
        assert value == pytest.approx(15.0, rel=0.02)

    def test_noiseless_zf_infinite(self):
        h = np.diag([2.0, 1.0]).astype(complex)
        w = detection.zf_filter(h)
        value = analysis.empirical_distortion_snr(h, w, NoiseModel(0.0), 100, RngStream(68))
        assert value == math.inf

    def test_mmse_matches_error_covariance_trace(self):
        # Analytic MSE for the MMSE filter is v * sum(1/(s_i^2 + v)):
        # here 2 / (0.1 * (1/3.1 + 1/1.1)) = 16.238095...
        h = np.diag(WORKED_SPECTRUM).astype(complex)
        noise = NoiseModel(0.1)
        w = detection.mmse_filter(h, noise)
        value = analysis.empirical_distortion_snr(h, w, noise, 100000, RngStream(69))
        assert value == pytest.approx(16.238095238095237, rel=0.02)
        # ... which deliberately differs from the closed-form 15.319
        assert abs(value - WORKED_SNR_MMSE) / WORKED_SNR_MMSE > 0.03

    def test_deterministic(self):
        h = np.diag([1.5, 1.0]).astype(complex)
        w = detection.zf_filter(h)
        a = analysis.empirical_distortion_snr(h, w, NoiseModel(0.2), 5000, RngStream(70))
        b = analysis.empirical_distortion_snr(h, w, NoiseModel(0.2), 5000, RngStream(70))
        assert a == b

    def test_rejects_bad_trials(self):
        h = np.eye(2)
        w = detection.zf_filter(h)
        with pytest.raises(ValueError):
            analysis.empirical_distortion_snr(h, w, NoiseModel(0.1), 0, RngStream(71))
