"""Runtime-checkable invariant suite backing the ``props`` CLI subcommand.

Each check returns a :class:`PropertyResult`; :func:`run_property_suite`
runs all of them at full sample counts.  These back the claims that
are not reproducible as single exact numbers: Weyl-bound validity, the
closed-form filter conditioning and where its approximation is exact,
zero-noise filter coincidence, SNR ordering and limits, conditioning
bounds, the Monte Carlo distortion oracle against the closed forms, and
CDF dominance across dimensions.  None tests NumPy alone.

The checks run on stacks, through the kernels the experiment runners use:
a check draws the dimension of every sample first, then one stack per
dimension.  The distortion oracle runs on the runners' block driver and
takes its standard error from the reduced distortion, and the CDF
dominance check goes through the public runner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis, detection, experiments
from .channel import NoiseModel, RngStream, _normalized_draw, complex_gaussian, normalize


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> PropertyResult:
    return PropertyResult(name=name, passed=bool(passed), detail=detail)


def _stacks(sizes):
    """``(n, k)`` per distinct sample dimension ``n`` of ``sizes``, ascending: ``k`` samples."""
    n_values, counts = np.unique(sizes, return_counts=True)
    return zip(n_values.tolist(), counts.tolist())


def _gram(h: np.ndarray) -> np.ndarray:
    return h.conj().swapaxes(-1, -2) @ h


def _spectra(a: np.ndarray) -> np.ndarray:
    return np.linalg.svd(a, compute_uv=False)


def check_weyl_validity(master_seed: int = 101, pairs: int = 1000) -> PropertyResult:
    """Every eigenvalue of a PSD sum dominates its Weyl lower bound.

    Builds random Hermitian PSD pairs as Grams of complex Gaussian matrices
    and compares each eigenvalue of the sum against the stacked-family
    bound, allowing 1e-9 absolute slack for rounding.
    """
    g = RngStream(master_seed).generator()
    worst = math.inf
    violations = 0
    for n, k in _stacks(g.integers(2, 9, size=pairs)):
        sigma = _gram(complex_gaussian((k, n, n), g))
        delta = _gram(complex_gaussian((k, n, n), g))
        margin = _spectra(sigma + delta) - analysis._weyl_bounds(_spectra(sigma), _spectra(delta))
        worst = min(worst, float(np.min(margin)))
        violations += int(np.count_nonzero(margin < -1e-9))
    return _result(
        "weyl_validity",
        violations == 0,
        f"{pairs} PSD pairs, {violations} violations, worst margin {worst:.3e}",
    )


def check_filter_conditioning_closed_form(master_seed: int = 103, matrices: int = 200) -> PropertyResult:
    """SVDs of the built ZF and MMSE filters give the closed-form conditioning within 1e-8."""
    g = RngStream(master_seed).generator()
    worst = 0.0
    for n, k in _stacks(g.integers(2, 9, size=matrices)):
        h, s = _normalized_draw(g, k, n)
        variance = g.uniform(1e-3, 5.0, size=k)
        closed = analysis._spectral_conds(s, 0.0, variance)
        worst = max(worst, float(np.max(np.abs(analysis._filter_conds(h, variance) - closed) / closed)))
    return _result(
        "filter_conditioning_closed_form",
        worst <= 1e-8,
        f"{matrices} channels, ZF and MMSE, worst relative deviation {worst:.3e}",
    )


def check_mmse_zero_noise_reduces_to_zf(master_seed: int = 105, matrices: int = 50) -> PropertyResult:
    """The filter kernel at zero noise variance is the ZF filter, the channel's inverse."""
    g = RngStream(master_seed).generator()
    worst = 0.0
    for n, k in _stacks(g.integers(2, 7, size=matrices)):
        h = complex_gaussian((k, n, n), g)
        inv = np.linalg.inv(h)
        gap = np.linalg.norm(detection._filters(h, 0.0)[0] - inv, axis=(-2, -1))
        worst = max(worst, float(np.max(gap / np.linalg.norm(inv, axis=(-2, -1)))))
    return _result(
        "mmse_zero_noise_equals_zf",
        worst <= 1e-9,
        f"{matrices} matrices, worst relative Frobenius gap {worst:.3e}",
    )


def check_snr_ordering(master_seed: int = 106, samples: int = 500) -> PropertyResult:
    """snr_mmse >= snr_zf for positive noise, within 1e-9 relative."""
    g = RngStream(master_seed).generator()
    worst = -math.inf
    for n, k in _stacks(g.integers(2, 9, size=samples)):
        s = np.sort(g.uniform(0.05, 3.0, size=(k, n)))[..., ::-1]
        variance = g.uniform(1e-4, 10.0, size=k)
        z = analysis._zf_snr(s, variance)
        numerator, denominator = analysis._mmse_snr_terms(s, variance)
        worst = max(worst, float(np.max((z - numerator / denominator) / z)))
    return _result(
        "snr_mmse_dominates_snr_zf",
        worst <= 1e-9,
        f"{samples} sampled (spectrum, variance) pairs, worst (zf-mmse)/zf {worst:.3e}",
    )


def check_snr_zero_noise_limit(master_seed: int = 107, samples: int = 100) -> PropertyResult:
    """snr_mmse / snr_zf approaches 1 from above as the noise vanishes."""
    g = RngStream(master_seed).generator()
    ok = True
    worst = 0.0
    for n, k in _stacks(g.integers(2, 9, size=samples)):
        s = np.sort(g.uniform(0.1, 3.0, size=(k, n)))[..., ::-1]
        numerator, denominator = analysis._mmse_snr_terms(s, 1e-6)
        ratio = numerator / denominator / analysis._zf_snr(s, 1e-6)
        ok = ok and bool(np.all((1.0 - 1e-12 <= ratio) & (ratio <= 1.0 + 1e-4)))
        worst = max(worst, float(np.max(np.abs(ratio - 1.0))))
    return _result(
        "snr_ratio_unity_limit",
        ok,
        f"{samples} spectra at variance 1e-6, worst |ratio - 1| {worst:.3e}",
    )


def check_cond_ratio_bounds(master_seed: int = 108, matrices: int = 200) -> PropertyResult:
    """Approximate ratio <= 1 and exact ratio <= 1 + 1e-9 on sampled channels."""
    g = RngStream(master_seed).generator()
    worst_exact = -math.inf
    worst_approx = -math.inf
    for n, k in _stacks(g.integers(2, 7, size=matrices)):
        s = _normalized_draw(g, k, n)[1]
        variance = g.uniform(1e-3, 5.0, size=k)
        cond_zf, cond_mmse = analysis._spectral_conds(s, 0.0, variance)
        approx = analysis._cond_ratio_approx(s[:, 0], s[:, -1], variance)
        worst_exact = max(worst_exact, float(np.max(cond_mmse / cond_zf)) - 1.0)
        worst_approx = max(worst_approx, float(np.max(approx)) - 1.0)
    return _result(
        "cond_ratio_bounded_by_one",
        worst_exact <= 1e-9 and worst_approx <= 0.0,
        f"{matrices} channels, worst exact excess {worst_exact:.3e}, "
        f"worst approx excess {worst_approx:.3e}",
    )


def check_approx_ratio_exact_above_sqrt_v(master_seed: int = 109, samples: int = 500) -> PropertyResult:
    """cond(W_mmse) is ``s_1/s_N`` times the approximate ratio within 1e-12 when ``s_N >= sqrt(v)``.

    ``f(s) = s / (s^2 + v)`` falls for ``s >= sqrt(v)``, so there
    ``cond(W_mmse) = f(s_N) / f(s_1)``.
    """
    g = RngStream(master_seed).generator()
    worst = 0.0
    for n, k in _stacks(g.integers(2, 9, size=samples)):
        s = np.sort(g.uniform(0.05, 3.0, size=(k, n)))[..., ::-1]
        variance = g.uniform(0.0, 1.0, size=k) * s[:, -1] ** 2
        [cond_mmse] = analysis._spectral_conds(s, variance)
        approx = analysis._cond_ratio_approx(s[:, 0], s[:, -1], variance) * s[:, 0] / s[:, -1]
        worst = max(worst, float(np.max(np.abs(cond_mmse - approx) / cond_mmse)))
    return _result(
        "approx_ratio_exact_above_sqrt_v",
        worst <= 1e-12,
        f"{samples} spectra with s_N >= sqrt(v), worst relative deviation {worst:.3e}",
    )


def check_mmse_abc_inequality(master_seed: int = 110, samples: int = 500) -> PropertyResult:
    """Cauchy-Schwarz: a >= b for random spectra and noise variances.

    Every sample must pass; the figure is the worst ``b - a`` over N >= 2.
    """
    g = RngStream(master_seed).generator()
    worst = worst_n1 = -math.inf
    for n, k in _stacks(g.integers(1, 10, size=samples)):
        s = np.sort(g.uniform(0.01, 5.0, size=(k, n)))[..., ::-1]
        a, b, _ = analysis._spectral_sums(s, g.uniform(0.0, 10.0, size=k))
        excess = float(np.max(b - a))
        if n == 1:
            worst_n1 = excess
        else:
            worst = max(worst, excess)
    return _result(
        "mmse_abc_cauchy_schwarz",
        max(worst, worst_n1) <= 1e-12,
        f"{samples} inputs, worst b - a {worst:.3e} over N >= 2",
    )


def check_eq_power_normalization(master_seed: int = 111, matrices: int = 200) -> PropertyResult:
    """Normalized realizations satisfy sum(sigma_i^2) == N^2 to 1e-8 relative."""
    g = RngStream(master_seed).generator()
    worst = 0.0
    for n, k in _stacks(g.integers(2, 9, size=matrices)):
        total = np.sum(_normalized_draw(g, k, n)[1] ** 2, axis=-1)
        worst = max(worst, float(np.max(np.abs(total - n * n))) / (n * n))
    return _result(
        "power_normalization",
        worst <= 1e-8,
        f"{matrices} realizations, worst relative deviation {worst:.3e}",
    )


def check_distortion_oracle(master_seed: int = 112, trials: int = 400000) -> PropertyResult:
    """Monte Carlo ZF distortion SNR matches the closed form within 3 SE.

    Each channel's oracle runs ``trials`` trials on the runners' block
    driver; its SE is the delta-method SE of ``N / mean distortion``.  By
    the union bound, correct code fails with probability at most 3 x 0.27%
    (``|Z| > 3`` on each of 3 channels), which the detail states.  Also pins
    the worked diagonal example: spectrum squared (3, 1) at variance 0.1
    gives 15.0 (ZF closed form and oracle), 15.319 (MMSE closed form), and
    16.238 (MMSE oracle).
    """
    noise = NoiseModel(0.1)
    h_diag = np.diag([math.sqrt(3.0), 1.0]).astype(complex)
    g = RngStream(master_seed).generator()
    channels = [("diag", h_diag)]
    for k in range(2):
        channels.append((f"random{k}", normalize(complex_gaussian((4, 4), g)).matrix))

    details = []
    ok = True
    for name, h in channels:
        n = h.shape[0]
        target = analysis.snr_zf(_spectra(h), noise)
        [triple] = experiments._reduce(
            experiments._distortion_block, master_seed, (200,),
            (n, h, detection.zf_filter(h).matrix, noise.variance), trials, 1,
        )
        distortion, se_distortion = experiments._mean_se(*triple)
        snr = n / distortion
        se = snr * se_distortion / distortion
        ok = ok and abs(snr - target) <= 3.0 * se
        details.append(f"{name}: oracle {snr:.4f} vs formula {target:.4f} (se {se:.4f})")

    spectrum = np.array([math.sqrt(3.0), 1.0])
    zf_formula = analysis.snr_zf(spectrum, noise)
    mmse_formula = analysis.snr_mmse(spectrum, noise)
    w_mmse = detection.mmse_filter(h_diag, noise)
    mmse_oracle = experiments.empirical_distortion_snr(
        h_diag, w_mmse, noise, 100000, RngStream(master_seed).child(201)
    )
    ok = ok and abs(zf_formula - 15.0) / 15.0 <= 5e-4
    ok = ok and abs(mmse_formula - 15.319) / 15.319 <= 5e-4
    ok = ok and abs(mmse_oracle - 16.238) / 16.238 <= 0.02
    details.append(
        f"worked example: zf {zf_formula:.4f}, mmse formula {mmse_formula:.4f}, "
        f"mmse oracle {mmse_oracle:.4f}"
    )
    alarm = len(channels) * math.erfc(3.0 / math.sqrt(2.0))
    details.append(f"false-alarm rate <= {100 * alarm:.2f}% (3 SE, {len(channels)} channels)")
    return _result("distortion_oracle", ok, "; ".join(details))


def check_cdf_dominance(master_seed: int = 113, trials: int = 10000, dims=(2, 4, 8)) -> PropertyResult:
    """Minimum-singular-value CDFs of larger dimensions dominate smaller ones.

    At every grid point, ``F_larger(x) >= F_smaller(x) - 3 * SE`` where the
    SE combines the binomial errors of both curves.  The reported worst
    deficit is taken where that SE is nonzero, i.e. where either CDF lies
    strictly between 0 and 1; where both are 0 or both are 1 the deficit is
    exactly 0 and shows nothing.
    """
    dims = tuple(sorted(dims))
    table = experiments.run_min_singular_cdf(dims, trials=trials, master_seed=master_seed)
    worst = -math.inf
    ok = True
    for small, large in zip(dims[:-1], dims[1:]):
        rows_small = table.select(statistic="cdf_sigma_min", n=small)
        rows_large = table.select(statistic="cdf_sigma_min", n=large)
        for rs, rl in zip(rows_small, rows_large):
            slack = 3.0 * math.hypot(rs["se"], rl["se"])
            deficit = rs["value"] - rl["value"] - slack
            if slack > 0.0:
                worst = max(worst, deficit)
            ok = ok and deficit <= 0.0
    return _result(
        "cdf_dominance",
        ok,
        f"dims {dims}, {trials} samples each, worst slacked deficit {worst:.3e}",
    )


def run_property_suite(master_seed: int = 0) -> list[PropertyResult]:
    """Run every invariant check; derive per-check seeds from ``master_seed``.

    ``master_seed`` follows the seed rule of :class:`RngStream`, checked
    before any check runs.
    """
    base = RngStream(master_seed).master_seed
    return [
        check_weyl_validity(base + 101),
        check_filter_conditioning_closed_form(base + 103),
        check_mmse_zero_noise_reduces_to_zf(base + 105),
        check_snr_ordering(base + 106),
        check_snr_zero_noise_limit(base + 107),
        check_cond_ratio_bounds(base + 108),
        check_approx_ratio_exact_above_sqrt_v(base + 109),
        check_mmse_abc_inequality(base + 110),
        check_eq_power_normalization(base + 111),
        check_distortion_oracle(base + 112),
        check_cdf_dominance(base + 113),
    ]
