import re

import pytest

from lindet import analysis, properties


def test_weyl_validity_reduced():
    result = properties.check_weyl_validity(pairs=150)
    assert result.passed, result.detail


def test_filter_conditioning_closed_form_reduced():
    result = properties.check_filter_conditioning_closed_form(matrices=60)
    assert result.passed, result.detail


def test_approx_ratio_exact_above_sqrt_v_reduced():
    result = properties.check_approx_ratio_exact_above_sqrt_v(samples=120)
    assert result.passed, result.detail


@pytest.mark.parametrize("error", [1.01, 0.99])
def test_conditioning_checks_catch_a_one_percent_error(error, monkeypatch):
    kernel = analysis._spectral_conds
    monkeypatch.setattr(analysis, "_spectral_conds", lambda s, *v: error * kernel(s, *v))
    assert not properties.check_filter_conditioning_closed_form(matrices=60).passed
    assert not properties.check_approx_ratio_exact_above_sqrt_v(samples=120).passed


@pytest.mark.parametrize("trials, t_rate", [(16, "2.67%"), (64, "1.15%")])
def test_distortion_oracle_reports_its_false_alarm_rate(trials, t_rate):
    # |Z| > 3 has probability 0.27% on correct code; the union bound over
    # the three channels gives the rate the detail states, whatever the trial
    # count.  The Student-t rate that 16 or 64 replicates once gave is gone.
    detail = properties.check_distortion_oracle(trials=trials).detail
    assert "false-alarm rate <= 0.81% (3 SE, 3 channels)" in detail
    assert t_rate not in detail


def test_distortion_oracle_catches_a_one_percent_zf_error(monkeypatch):
    formula = analysis.snr_zf
    monkeypatch.setattr(analysis, "snr_zf", lambda s, noise: 1.01 * formula(s, noise))
    result = properties.check_distortion_oracle()
    assert not result.passed
    # every channel's comparison fails, not only the worked example's pin
    comparisons = re.findall(r"oracle (\S+) vs formula (\S+) \(se (\S+)\)", result.detail)
    assert len(comparisons) == 3, result.detail
    for oracle, target, se in comparisons:
        assert abs(float(oracle) - float(target)) > 3.0 * float(se), result.detail


def test_snr_ordering_reduced():
    result = properties.check_snr_ordering(samples=120)
    assert result.passed, result.detail


def test_cond_ratio_bounds_reduced():
    result = properties.check_cond_ratio_bounds(matrices=60)
    assert result.passed, result.detail


def test_power_normalization_reduced():
    result = properties.check_eq_power_normalization(matrices=60)
    assert result.passed, result.detail


def test_mmse_zero_noise_equals_zf_reduced():
    result = properties.check_mmse_zero_noise_reduces_to_zf(matrices=20)
    assert result.passed, result.detail


def test_snr_zero_noise_limit_reduced():
    result = properties.check_snr_zero_noise_limit(samples=30)
    assert result.passed, result.detail


def test_mmse_abc_cauchy_schwarz_reduced():
    result = properties.check_mmse_abc_inequality(samples=120)
    assert result.passed, result.detail


def test_suite_runs_the_eleven_checks_in_order():
    names = [r.name for r in properties.run_property_suite(0)]
    assert names == [
        "weyl_validity",
        "filter_conditioning_closed_form",
        "mmse_zero_noise_equals_zf",
        "snr_mmse_dominates_snr_zf",
        "snr_ratio_unity_limit",
        "cond_ratio_bounded_by_one",
        "approx_ratio_exact_above_sqrt_v",
        "mmse_abc_cauchy_schwarz",
        "power_normalization",
        "distortion_oracle",
        "cdf_dominance",
    ]


@pytest.mark.parametrize("seed", [0.5, True, -1, "3"])
def test_suite_seed_follows_the_count_rule(seed, monkeypatch):
    monkeypatch.setattr(properties, "check_weyl_validity", lambda *a: pytest.fail("a check ran"))
    with pytest.raises(ValueError, match="master_seed must be"):
        properties.run_property_suite(seed)


def test_no_check_uses_the_validated_linalg_layer():
    assert "linalg" not in vars(properties)


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


def _worst(detail, label):
    """The number after ``label`` in a check's detail text."""
    return float(detail.split(label)[1].split()[0].rstrip(","))


@pytest.mark.parametrize(
    "check, label",
    [
        (lambda: properties.check_snr_ordering(samples=120), "(zf-mmse)/zf"),
        (lambda: properties.check_cond_ratio_bounds(matrices=60), "exact excess"),
        (lambda: properties.check_cond_ratio_bounds(matrices=60), "approx excess"),
        (lambda: properties.check_cdf_dominance(trials=2000), "slacked deficit"),
    ],
)
def test_worst_figures_report_the_sampled_worst(check, label):
    # These worst cases are negative on correct code; a running worst that
    # started at 0, or a deficit taken where both CDFs are 0 or 1, read 0.
    result = check()
    assert result.passed, result.detail
    assert _worst(result.detail, label) < 0.0, result.detail


def test_cauchy_schwarz_worst_skips_the_one_antenna_equality():
    # b - a is 0 for N = 1 and negative for N >= 2; the figure is the worst
    # over N >= 2, so a run that samples N = 1 still reads negative.  The
    # single sample at the default seed has N >= 2.
    assert _worst(properties.check_mmse_abc_inequality(samples=120).detail, "b - a") < 0.0
    assert _worst(properties.check_mmse_abc_inequality(samples=1).detail, "b - a") < 0.0


@pytest.mark.parametrize("seed, worst", [(110, -1.460e-06), (111, -1.164e-04), (112, -4.838e-03)])
def test_cauchy_schwarz_worst_at_suite_seeds_0_to_2(seed, worst):
    result = properties.check_mmse_abc_inequality(seed)
    assert result.passed, result.detail
    assert _worst(result.detail, "b - a") == worst
