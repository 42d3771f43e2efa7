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
        recomputed = linalg.svd(real.matrix).spectrum
        assert float(np.sum(recomputed**2)) == pytest.approx(16.0, rel=1e-8)
        np.testing.assert_allclose(real.spectrum, recomputed, rtol=1e-10, atol=1e-12)

    def test_provenance(self):
        real = channel.normalize(np.eye(3))
        assert real.provenance == "normalized"

    def test_rejects_all_zero(self):
        with pytest.raises(DegenerateInputError):
            channel.normalize(np.zeros((2, 2)))

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionError):
            channel.normalize(np.ones((2, 3)))


class TestSampleFloored:
    def test_zero_floor_accepts_first_draw(self):
        stream = RngStream(7, (3,))
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

    def test_exhaustion_raises(self):
        # sigma_min above the max possible value sqrt(N) can never be accepted
        with pytest.raises(SamplingExhaustedError) as err:
            channel.sample_floored(4, 10.0, RngStream(10), max_attempts=50)
        assert err.value.attempts == 50

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


class TestSynthesizeSpectrum:
    def test_cond_one_gives_equal_spectrum(self):
        real = channel.synthesize_spectrum(4, 1.0, 0.5, RngStream(12))
        np.testing.assert_allclose(real.spectrum, 0.5)
        assert linalg.condition_number(real.matrix) == pytest.approx(1.0, rel=1e-9)

    def test_prescribed_cond_and_floor(self):
        real = channel.synthesize_spectrum(4, 15.0, 0.1, RngStream(13))
        assert real.spectrum[0] == pytest.approx(1.5, rel=1e-12)
        assert real.spectrum[-1] == pytest.approx(0.1, rel=1e-12)
        assert linalg.condition_number(real.matrix) == pytest.approx(15.0, rel=1e-9)
        s = linalg.svd(real.matrix).spectrum
        assert s[-1] == pytest.approx(0.1, rel=1e-9)

    def test_spectrum_matches_svd(self):
        real = channel.synthesize_spectrum(5, 7.0, 0.2, RngStream(14), interior="geometric")
        np.testing.assert_allclose(
            linalg.svd(real.matrix).spectrum, real.spectrum, rtol=1e-10
        )

    def test_haar_factors_unitary(self):
        u = channel.haar_unitary(6, RngStream(15).generator())
        np.testing.assert_allclose(linalg.gram(u), np.eye(6), atol=1e-10)

    def test_rejects_cond_below_one(self):
        with pytest.raises(ValueError):
            channel.synthesize_spectrum(4, 0.5, 0.1, RngStream(16))

    def test_rejects_unknown_interior(self):
        with pytest.raises(ValueError):
            channel.synthesize_spectrum(4, 2.0, 0.1, RngStream(17), interior="linear")


class TestSampleNoise:
    def test_zero_variance_gives_zero_vector(self):
        n = channel.sample_noise(16, NoiseModel(0.0), RngStream(18))
        assert np.all(n == 0)

    def test_moment(self):
        # 10^6 draws at variance 0.5: mean |n|^2 within half a percent
        n = channel.sample_noise(10**6, NoiseModel(0.5), RngStream(19))
        assert 0.4975 <= float(np.mean(np.abs(n) ** 2)) <= 0.5025

    def test_deterministic(self):
        a = channel.sample_noise(32, NoiseModel(1.0), RngStream(20, (4,)))
        b = channel.sample_noise(32, NoiseModel(1.0), RngStream(20, (4,)))
        assert np.array_equal(a, b)


class TestTransmit:
    def test_identity_channel_no_noise(self):
        x = np.array([1 + 1j, -1 - 1j])
        r = channel.transmit(np.eye(2), x, np.zeros(2))
        np.testing.assert_array_equal(r, x)

    def test_diagonal(self):
        r = channel.transmit(np.diag([2.0, 1.0]), [1.0, 1.0], [0.0, 0.0])
        np.testing.assert_allclose(r, [2.0, 1.0])

    def test_matches_triple_loop_oracle(self):
        g = RngStream(21).generator()
        h = channel.complex_gaussian((4, 4), g)
        x = channel.complex_gaussian((4,), g)
        nz = channel.complex_gaussian((4,), g)
        expected = np.zeros(4, dtype=complex)
        for i in range(4):
            acc = 0.0 + 0.0j
            for j in range(4):
                acc += h[i, j] * x[j]
            expected[i] = acc + nz[i]
        np.testing.assert_allclose(channel.transmit(h, x, nz), expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            channel.transmit(np.eye(2), [1.0, 2.0, 3.0], [0.0, 0.0])
        with pytest.raises(DimensionError):
            channel.transmit(np.eye(2), [1.0, 2.0], [0.0, 0.0, 0.0])
