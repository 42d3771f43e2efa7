import numpy as np
import pytest

from lindet import detection, linalg
from lindet.analysis import cond_ratio_exact
from lindet.channel import NoiseModel, RngStream, complex_gaussian
from lindet.exceptions import DimensionError, SingularMatrixError


def _random_matrix(n, seed):
    return complex_gaussian((n, n), RngStream(seed).generator())


def _cond_zf(h):
    return cond_ratio_exact(h, NoiseModel(0.0)).cond_w_zf


class TestSvd:
    def test_identity_spectrum(self):
        np.testing.assert_allclose(linalg.singular_values(np.eye(2)), [1.0, 1.0])

    def test_diagonal_spectrum_descending(self):
        np.testing.assert_allclose(linalg.singular_values(np.diag([2.0, 1.0])), [2.0, 1.0])
        np.testing.assert_allclose(linalg.singular_values(np.diag([1.0, 2.0])), [2.0, 1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            linalg.singular_values(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rejects_1d(self):
        with pytest.raises(DimensionError):
            linalg.singular_values(np.ones(4))


class TestGram:
    def test_diagonal(self):
        np.testing.assert_allclose(linalg.gram(np.diag([2.0, 1.0])), np.diag([4.0, 1.0]))

    def test_unitary_gives_identity(self):
        theta = 0.3
        u = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
            dtype=complex,
        ) * np.exp(0.7j)
        np.testing.assert_allclose(linalg.gram(u), np.eye(2), atol=1e-12)

    def test_gram_eigenvalues_are_squared_singular_values(self):
        # Two independent routes: eigvalsh on the Gram vs squared SVD values.
        h = _random_matrix(5, seed=21)
        eigs = np.sort(np.linalg.eigvalsh(linalg.gram(h)))[::-1]
        squares = np.linalg.svd(h, compute_uv=False) ** 2
        np.testing.assert_allclose(eigs, squares, rtol=1e-9)

    def test_hermitian_psd(self):
        h = _random_matrix(4, seed=22)
        g = linalg.gram(h)
        np.testing.assert_allclose(g, g.conj().T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(g) >= -1e-12)


class TestInverse:
    """The ZF filter of a square channel is its inverse, behind the singularity
    guard that ``detection._guarded_channel`` applies to the Gram matrix
    ``H^H H`` through the channel's singular values."""

    def test_identity(self):
        np.testing.assert_allclose(detection.zf_filter(np.eye(3)).matrix, np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(
            detection.zf_filter(np.diag([2.0, 4.0])).matrix, np.diag([0.5, 0.25])
        )

    def test_residual_random_4x4(self):
        a = _random_matrix(4, seed=31)
        inv = detection.zf_filter(a).matrix
        assert np.linalg.norm(a @ inv - np.eye(4)) <= 1e-9 * 4

    def test_singular_raises_with_extremes(self):
        # the guard sees the Gram matrix diag(1, 0)
        with pytest.raises(SingularMatrixError) as err:
            detection.zf_filter(np.diag([1.0, 0.0]))
        assert err.value.sigma_min == 0.0
        assert err.value.sigma_max == 1.0

    def test_near_singular_threshold(self):
        # Gram singular values 1 and 1e-14: below SINGULARITY_RTOL = 1e-12
        with pytest.raises(SingularMatrixError):
            detection.zf_filter(np.diag([1.0, 1e-7]))
        detection.zf_filter(np.diag([1.0, 1e-5]))  # 1e-10, above threshold: fine


class TestConditionNumber:
    """cond(W_zf) as ``cond_ratio_exact`` reports it, which equals cond(H)."""

    def test_unitary_is_one(self):
        u = np.linalg.svd(_random_matrix(4, seed=41))[0]
        assert _cond_zf(u) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert _cond_zf(np.diag([2.0, 1.0])) == pytest.approx(2.0)

    def test_at_least_one(self):
        for seed in range(43, 53):
            assert _cond_zf(_random_matrix(3, seed)) >= 1.0

    def test_equals_condition_of_inverse(self):
        # cond(A) == cond(A^{-1}), 200 sampled matrices, 1e-8 relative
        g = RngStream(44).generator()
        for k in range(200):
            n = 2 + (k % 7)
            a = complex_gaussian((n, n), g)
            s = np.linalg.svd(a, compute_uv=False)
            c = s[0] / s[-1]
            assert abs(c - _cond_zf(a)) / c <= 1e-8

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            _cond_zf(np.zeros((2, 2)))


class TestSpectrumValidation:
    def test_accepts_descending(self):
        s = linalg.as_spectrum([3.0, 2.0, 2.0, 0.0])
        np.testing.assert_allclose(s, [3.0, 2.0, 2.0, 0.0])

    def test_rejects_ascending(self):
        with pytest.raises(ValueError):
            linalg.as_spectrum([1.0, 2.0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            linalg.as_spectrum([1.0, -0.5])

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            linalg.as_spectrum([])
