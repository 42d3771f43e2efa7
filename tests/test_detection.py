import math

import numpy as np
import pytest

from lindet import detection
from lindet.channel import NoiseModel, RngStream, complex_gaussian, normalize
from lindet.exceptions import DimensionError, SingularMatrixError

SQRT_HALF = math.sqrt(0.5)


class TestQpskModulate:
    def test_mapping_00(self):
        np.testing.assert_allclose(
            detection.qpsk_modulate([0, 0]), [(1 + 1j) * SQRT_HALF]
        )

    def test_mapping_11(self):
        np.testing.assert_allclose(
            detection.qpsk_modulate([1, 1]), [(-1 - 1j) * SQRT_HALF]
        )

    def test_constellation_distinct_unit_energy(self):
        points = {
            complex(detection.qpsk_modulate([b0, b1])[0])
            for b0 in (0, 1)
            for b1 in (0, 1)
        }
        assert len(points) == 4
        for p in points:
            assert abs(p) == pytest.approx(1.0)

    def test_odd_bit_count_raises(self):
        with pytest.raises(DimensionError):
            detection.qpsk_modulate([0, 1, 0])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            detection.qpsk_modulate([0, 2])

    def test_rejects_fractional_values(self):
        with pytest.raises(ValueError):
            detection.qpsk_modulate([0.5, 0.5])


    def test_batch_axes_map_row_by_row(self):
        bits = RngStream(4).generator().integers(0, 2, size=(3, 5, 8))
        x = detection.qpsk_modulate(bits)
        assert x.shape == (3, 5, 4)
        np.testing.assert_array_equal(x[2, 1], detection.qpsk_modulate(bits[2, 1]))

    def test_odd_last_axis_raises(self):
        with pytest.raises(DimensionError):
            detection.qpsk_modulate(np.zeros((4, 3), dtype=int))


class TestQpskSlice:
    def test_batch_round_trip(self):
        bits = RngStream(5).generator().integers(0, 2, size=(6, 10))
        np.testing.assert_array_equal(
            detection.qpsk_slice(detection.qpsk_modulate(bits)), bits
        )

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            detection.qpsk_slice([[1.0, math.nan]])


    def test_sign_rule(self):
        np.testing.assert_array_equal(detection.qpsk_slice([0.9 - 0.2j]), [0, 1])

    def test_round_trip_all_pairs(self):
        for b0 in (0, 1):
            for b1 in (0, 1):
                bits = np.array([b0, b1])
                out = detection.qpsk_slice(detection.qpsk_modulate(bits))
                np.testing.assert_array_equal(out, bits)

    def test_tie_decides_zero(self):
        np.testing.assert_array_equal(detection.qpsk_slice([0.0 + 0.0j]), [0, 0])
        np.testing.assert_array_equal(detection.qpsk_slice([0.0 - 1.0j]), [0, 1])


class TestZfFilter:
    def test_identity(self):
        w = detection.zf_filter(np.eye(3))
        np.testing.assert_allclose(w.matrix, np.eye(3), atol=1e-12)
        assert w.kind == "zf"
        assert w.noise_variance == 0.0

    def test_diagonal(self):
        w = detection.zf_filter(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(w.matrix, np.diag([0.5, 1.0]), atol=1e-12)

    def test_inverts_channel(self):
        h = complex_gaussian((4, 4), RngStream(50).generator())
        w = detection.zf_filter(h)
        assert np.linalg.norm(w.matrix @ h - np.eye(4)) <= 1e-8

    def test_inverts_channel_sampled(self):
        g = RngStream(51).generator()
        for _ in range(25):
            h = normalize(complex_gaussian((4, 4), g)).matrix
            w = detection.zf_filter(h)
            assert np.linalg.norm(w.matrix @ h - np.eye(4)) <= 1e-8

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            detection.zf_filter(np.diag([1.0, 0.0]))


class TestMmseFilter:
    def test_identity_unit_noise(self):
        w = detection.mmse_filter(np.eye(2), NoiseModel(1.0))
        np.testing.assert_allclose(w.matrix, 0.5 * np.eye(2), atol=1e-12)
        assert w.kind == "mmse"
        assert w.noise_variance == 1.0

    def test_diagonal_unit_noise(self):
        w = detection.mmse_filter(np.diag([2.0, 1.0]), NoiseModel(1.0))
        np.testing.assert_allclose(w.matrix, np.diag([0.4, 0.5]), atol=1e-12)

    def test_zero_noise_equals_zf(self):
        h = complex_gaussian((4, 4), RngStream(52).generator())
        w_mmse = detection.mmse_filter(h, NoiseModel(0.0)).matrix
        w_zf = detection.zf_filter(h).matrix
        assert np.linalg.norm(w_mmse - w_zf) <= 1e-9 * np.linalg.norm(w_zf)

    def test_tiny_noise_continuity(self):
        h = complex_gaussian((4, 4), RngStream(53).generator())
        w_mmse = detection.mmse_filter(h, NoiseModel(1e-9)).matrix
        w_zf = detection.zf_filter(h).matrix
        assert np.linalg.norm(w_mmse - w_zf) / np.linalg.norm(w_zf) <= 1e-6

    def test_zero_noise_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            detection.mmse_filter(np.diag([1.0, 0.0]), NoiseModel(0.0))

    def test_positive_noise_singular_channel_ok(self):
        w = detection.mmse_filter(np.diag([1.0, 0.0]), NoiseModel(0.5))
        np.testing.assert_allclose(w.matrix, np.diag([1 / 1.5, 0.0]), atol=1e-12)


class TestEqualizeAndSlice:
    def test_noiseless_zf_recovers_bits(self):
        g = RngStream(54).generator()
        bits = np.array([0, 1, 1, 0, 1, 1, 0, 0])
        x = detection.qpsk_modulate(bits)
        for _ in range(10):
            h = complex_gaussian((4, 4), g)
            r = h @ x
            out = detection.equalize_and_slice(detection.zf_filter(h), r)
            np.testing.assert_array_equal(out, bits)

    def test_noiseless_mmse_diagonal_preserves_quadrant(self):
        # W H = diag(0.8, 0.5): positive real per-stream scaling keeps bits
        h = np.diag([2.0, 1.0])
        bits = np.array([1, 0, 0, 1])
        x = detection.qpsk_modulate(bits)
        w = detection.mmse_filter(h, NoiseModel(1.0))
        np.testing.assert_allclose(w.matrix @ h, np.diag([0.8, 0.5]), atol=1e-12)
        out = detection.equalize_and_slice(w, h @ x)
        np.testing.assert_array_equal(out, bits)

    def test_zero_received_vector(self):
        w = detection.zf_filter(np.eye(2))
        np.testing.assert_array_equal(
            detection.equalize_and_slice(w, np.zeros(2)), [0, 0, 0, 0]
        )

    def test_dimension_mismatch(self):
        w = detection.zf_filter(np.eye(2))
        with pytest.raises(DimensionError):
            detection.equalize_and_slice(w, np.zeros(3))


class TestCountBitErrors:
    def test_identical(self):
        assert detection.count_bit_errors([0, 1, 1, 0], [0, 1, 1, 0]) == 0

    def test_complement(self):
        a = [0, 1, 0, 1, 0, 1, 0, 1]
        b = [1, 0, 1, 0, 1, 0, 1, 0]
        assert detection.count_bit_errors(a, b) == 8

    def test_partial(self):
        assert detection.count_bit_errors([0, 1, 1, 0], [0, 0, 1, 1]) == 2

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            detection.count_bit_errors([0, 1], [0, 1, 0])
