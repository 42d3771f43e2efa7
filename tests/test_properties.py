import pytest

from lindet import properties


def test_weyl_validity_reduced():
    result = properties.check_weyl_validity(pairs=150)
    assert result.passed, result.detail


def test_gram_spectrum_identity_reduced():
    result = properties.check_gram_spectrum_identity(matrices=60)
    assert result.passed, result.detail


def test_inverse_condition_identity_reduced():
    result = properties.check_inverse_condition_identity(matrices=60)
    assert result.passed, result.detail


def test_identity_shift_tightness_reduced():
    result = properties.check_identity_shift_tightness(matrices=40)
    assert result.passed, result.detail


def test_snr_ordering_reduced():
    result = properties.check_snr_ordering(samples=120)
    assert result.passed, result.detail


def test_cond_ratio_bounds_reduced():
    result = properties.check_cond_ratio_bounds(matrices=60)
    assert result.passed, result.detail


def test_power_normalization_reduced():
    result = properties.check_eq_power_normalization(matrices=60)
    assert result.passed, result.detail


def test_result_structure():
    result = properties.check_mmse_zero_noise_reduces_to_zf(matrices=10)
    assert result.name == "mmse_zero_noise_equals_zf"
    assert isinstance(result.passed, bool)
    assert result.detail


@pytest.mark.parametrize("seed", [108, 111])
def test_snr_ratio_unity_limit_at_suite_seeds_1_and_4(seed):
    # ``lindet props --seed 1`` and ``--seed 4`` run this check at these
    # seeds; evaluating N b - a as written cancelled there and pushed
    # snr_mmse / snr_zf below 1.
    result = properties.check_snr_zero_noise_limit(seed)
    assert result.passed, result.detail
