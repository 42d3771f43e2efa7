import math

import numpy as np
import pytest

from lindet import detection, experiments, linalg
from lindet.analysis import cond_ratio_exact
from lindet.channel import NoiseModel, RngStream, complex_gaussian
from lindet.exceptions import DimensionError, SingularMatrixError
from lindet.experiments import noise_var_from_snr, run_ber_sweep, run_cond_ratio_sweep


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

    def test_rejects_empty(self):
        with pytest.raises(DimensionError, match="matrix must be nonempty"):
            linalg.as_complex_matrix(np.zeros((0, 0)))


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

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            linalg.as_spectrum([1.0, math.nan])

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            linalg.as_spectrum([])


class TestInputRules:
    """The count, dimension, finite-real and grid rules, each at a minimum of 2 where it has one."""

    @pytest.mark.parametrize(
        "value, expected",
        [
            (3, 3), (np.int64(3), 3), (3.0, 3), (10**30, 10**30), (2, 2),
            (True, None), (np.True_, None), ("3", None), (2.5, None),
            (math.nan, None), (math.inf, None), (1, None),
        ],
        ids=["3", "int64", "3.0", "1e30", "min", "True", "np.True_", "str", "2.5", "nan", "inf",
             "min-1"],
    )
    def test_integer(self, value, expected):
        if expected is None:
            with pytest.raises(ValueError, match="count must be"):
                linalg._integer("count", value, 2)
        else:
            got = linalg._integer("count", value, 2)
            assert got == expected and type(got) is int

    @pytest.mark.parametrize("value", [2.5, True, "2", 1, math.nan])
    def test_dimension(self, value):
        # the count rule, broken as a DimensionError (a ValueError)
        with pytest.raises(DimensionError, match="n must be"):
            linalg._dimension("n", value, 2)
        assert linalg._dimension("n", 4.0, 2) == 4

    @pytest.mark.parametrize(
        "value, expected",
        [
            (3, 3.0), (np.int64(3), 3.0), (2.5, 2.5), (10**30, 1e30), (2, 2.0),
            (math.nan, None), (math.inf, None), (-math.inf, None), (1.0, None),
        ],
        ids=["3", "int64", "2.5", "1e30", "min", "nan", "inf", "-inf", "min-1"],
    )
    def test_real(self, value, expected):
        if expected is None:
            with pytest.raises(ValueError, match="x must be finite and >= 2"):
                linalg._real("x", value, 2.0)
        else:
            got = linalg._real("x", value, 2.0)
            assert got == expected and type(got) is float

    @pytest.mark.parametrize(
        "values, expected",
        [
            ([3, np.int64(3), 3.0, 10**30], (3.0, 3.0, 3.0, 1e30)),
            (np.array([0.5, -1.0]), (0.5, -1.0)),
            (range(2, 0, -1), (2.0, 1.0)),
            ((), None), ([], None), ("10", None), ("", None), (b"10", None),
            ([1.0, math.nan], None), (np.array([math.nan]), None),
            ((x for x in (2, 0.5)), (2.0, 0.5)),
            (["10"], None), ([b"1"], None), ([1.0, True], None), ([np.True_], None),
            (np.array([True, False]), None),
        ],
        ids=["counts", "array", "range", "empty-tuple", "empty-list", "str", "empty-str",
             "bytes", "nan", "nan-array", "generator", "str-element", "bytes-element",
             "bool-element", "np.True_-element", "bool-array"],
    )
    def test_grid(self, values, expected):
        if expected is None:
            with pytest.raises(ValueError, match="grid must be"):
                linalg._grid("grid", values)
        else:
            got = linalg._grid("grid", values)
            assert got == expected and all(type(x) is float for x in got)

    @pytest.mark.parametrize(
        "value", [True, np.True_, "3", b"3", np.array(3.0), 3j],
        ids=["True", "np.True_", "str", "bytes", "0-d-array", "complex"],
    )
    def test_real_takes_only_real_numbers(self, value):
        # the count rule's types: numeric strings and bools are no reals
        with pytest.raises(ValueError, match="x must be a real number"):
            linalg._real("x", value, 2.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: NoiseModel("0.1"),
            lambda: NoiseModel(True),
            lambda: run_ber_sweep(4, ["10"], trials=1),
            lambda: run_ber_sweep(4, [10.0], sigma_min_floor="0.3", trials=1),
            lambda: run_cond_ratio_sweep(4, "15", [0.5], trials=1),
            lambda: run_cond_ratio_sweep(4, 15.0, [True], trials=1),
            lambda: run_cond_ratio_sweep(4, 15.0, [0.5], snr_db="10", trials=1),
            lambda: noise_var_from_snr(True, 4),
        ],
        ids=["noise-str", "noise-bool", "ber-snr-str", "ber-floor-str", "cond-str",
             "sigma-min-bool", "cond-snr-str", "snr-bool"],
    )
    def test_library_callers_meet_the_rules_before_any_block(self, call, monkeypatch):
        def run_blocks(*args):
            raise AssertionError("a block ran")

        monkeypatch.setattr(experiments, "_run_blocks", run_blocks)
        with pytest.raises(ValueError, match="must be a"):
            call()
