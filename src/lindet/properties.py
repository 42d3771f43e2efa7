"""Runtime-checkable invariant suite backing the ``props`` CLI subcommand.

Each check returns a :class:`PropertyResult`; :func:`run_property_suite`
runs all of them at full sample counts.  These back the claims that
are not reproducible as single exact numbers: Weyl-bound validity, the
Gram/inverse spectral identities, zero-noise filter coincidence, SNR
ordering and limits, conditioning bounds, the Monte Carlo distortion
oracle against the closed forms, and CDF dominance across dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis, detection, linalg
from .channel import NoiseModel, RngStream, complex_gaussian, normalize
from .experiments import run_min_singular_cdf


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> PropertyResult:
    return PropertyResult(name=name, passed=bool(passed), detail=detail)


def check_weyl_validity(master_seed: int = 101, pairs: int = 1000) -> PropertyResult:
    """Every eigenvalue of a PSD sum dominates its Weyl lower bound.

    Builds random Hermitian PSD pairs as Grams of complex Gaussian matrices
    and compares each eigenvalue of the sum against the stacked-family
    bound, allowing 1e-9 absolute slack for rounding.
    """
    g = RngStream(master_seed).generator()
    worst = math.inf
    violations = 0
    for _ in range(pairs):
        n = int(g.integers(2, 9))
        sigma = linalg.gram(complex_gaussian((n, n), g))
        delta = linalg.gram(complex_gaussian((n, n), g))
        spec_sigma = linalg.singular_values(sigma)
        spec_delta = linalg.singular_values(delta)
        spec_sum = linalg.singular_values(sigma + delta)
        for i in range(1, n + 1):
            bound = analysis.weyl_lower_bound(i, spec_sigma, spec_delta)
            margin = float(spec_sum[i - 1]) - bound
            worst = min(worst, margin)
            if margin < -1e-9:
                violations += 1
    return _result(
        "weyl_validity",
        violations == 0,
        f"{pairs} PSD pairs, {violations} violations, worst margin {worst:.3e}",
    )


def check_gram_spectrum_identity(master_seed: int = 102, matrices: int = 200) -> PropertyResult:
    """Singular values of the Gram matrix equal squared singular values."""
    g = RngStream(master_seed).generator()
    worst = 0.0
    for _ in range(matrices):
        n = int(g.integers(2, 9))
        h = complex_gaussian((n, n), g)
        s = linalg.singular_values(h)
        s_gram = linalg.singular_values(linalg.gram(h))
        worst = max(worst, float(np.max(np.abs(s_gram - s * s) / (s * s))))
    return _result(
        "gram_spectrum_identity",
        worst <= 1e-9,
        f"{matrices} matrices, worst relative deviation {worst:.3e}",
    )


def check_inverse_condition_identity(master_seed: int = 103, matrices: int = 200) -> PropertyResult:
    """cond(A) equals cond(inverse(A)) for sampled nonsingular matrices."""
    g = RngStream(master_seed).generator()
    worst = 0.0
    for _ in range(matrices):
        n = int(g.integers(2, 9))
        h = complex_gaussian((n, n), g)
        c = linalg.condition_number(h)
        c_inv = linalg.condition_number(linalg.inverse(h))
        worst = max(worst, abs(c - c_inv) / c)
    return _result(
        "inverse_condition_identity",
        worst <= 1e-8,
        f"{matrices} matrices, worst relative deviation {worst:.3e}",
    )


def check_svd_contracts(master_seed: int = 104, matrices: int = 200) -> PropertyResult:
    """SVD reconstruction and basis unitarity hold at stated tolerances."""
    g = RngStream(master_seed).generator()
    dims = (2, 4, 8)
    ok = True
    worst = 0.0
    for k in range(matrices):
        n = dims[k % len(dims)]
        h = complex_gaussian((n, n), g)
        res = linalg.svd(h)
        eye = np.eye(n)
        uni_u = np.linalg.norm(res.u.conj().T @ res.u - eye)
        uni_v = np.linalg.norm(res.vh @ res.vh.conj().T - eye)
        recon = np.linalg.norm(res.u @ np.diag(res.spectrum) @ res.vh - h)
        rel = recon / np.linalg.norm(h)
        worst = max(worst, uni_u / n, uni_v / n, rel)
        ok = ok and uni_u <= 1e-10 * n and uni_v <= 1e-10 * n and rel <= 1e-10
    return _result(
        "svd_contracts",
        ok,
        f"{matrices} matrices over dims {dims}, worst scaled residual {worst:.3e}",
    )


def check_mmse_zero_noise_reduces_to_zf(master_seed: int = 105, matrices: int = 50) -> PropertyResult:
    """mmse_filter with zero variance coincides with zf_filter."""
    g = RngStream(master_seed).generator()
    worst = 0.0
    for _ in range(matrices):
        n = int(g.integers(2, 7))
        h = complex_gaussian((n, n), g)
        w_zf = detection.zf_filter(h).matrix
        w_mmse = detection.mmse_filter(h, NoiseModel(0.0)).matrix
        worst = max(worst, float(np.linalg.norm(w_mmse - w_zf) / np.linalg.norm(w_zf)))
    return _result(
        "mmse_zero_noise_equals_zf",
        worst <= 1e-9,
        f"{matrices} matrices, worst relative Frobenius gap {worst:.3e}",
    )


def check_snr_ordering(master_seed: int = 106, samples: int = 500) -> PropertyResult:
    """snr_mmse >= snr_zf for positive noise, within 1e-9 relative."""
    g = RngStream(master_seed).generator()
    worst = 0.0
    for _ in range(samples):
        n = int(g.integers(2, 9))
        spectrum = np.sort(g.uniform(0.05, 3.0, size=n))[::-1]
        variance = float(g.uniform(1e-4, 10.0))
        z = analysis.snr_zf(spectrum, NoiseModel(variance))
        m = analysis.snr_mmse(spectrum, NoiseModel(variance))
        worst = max(worst, (z - m) / z)
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
    for _ in range(samples):
        n = int(g.integers(2, 9))
        spectrum = np.sort(g.uniform(0.1, 3.0, size=n))[::-1]
        noise = NoiseModel(1e-6)
        ratio = analysis.snr_mmse(spectrum, noise) / analysis.snr_zf(spectrum, noise)
        ok = ok and 1.0 - 1e-12 <= ratio <= 1.0 + 1e-4
        worst = max(worst, abs(ratio - 1.0))
    return _result(
        "snr_ratio_unity_limit",
        ok,
        f"{samples} spectra at variance 1e-6, worst |ratio - 1| {worst:.3e}",
    )


def check_cond_ratio_bounds(master_seed: int = 108, matrices: int = 200) -> PropertyResult:
    """Approximate ratio <= 1 and exact ratio <= 1 + 1e-9 on sampled channels."""
    g = RngStream(master_seed).generator()
    worst_exact = 0.0
    worst_approx = 0.0
    for _ in range(matrices):
        n = int(g.integers(2, 7))
        h = normalize(complex_gaussian((n, n), g)).matrix
        variance = float(g.uniform(1e-3, 5.0))
        report = analysis.cond_ratio_exact(h, NoiseModel(variance))
        worst_exact = max(worst_exact, report.exact_ratio - 1.0)
        worst_approx = max(worst_approx, report.approx_ratio - 1.0)
    return _result(
        "cond_ratio_bounded_by_one",
        worst_exact <= 1e-9 and worst_approx <= 0.0,
        f"{matrices} channels, worst exact excess {worst_exact:.3e}, "
        f"worst approx excess {worst_approx:.3e}",
    )


def check_identity_shift_tightness(master_seed: int = 109, matrices: int = 100) -> PropertyResult:
    """Adding variance * I shifts every Gram singular value by exactly that."""
    g = RngStream(master_seed).generator()
    worst = 0.0
    for _ in range(matrices):
        n = int(g.integers(2, 9))
        sigma = linalg.gram(complex_gaussian((n, n), g))
        variance = float(g.uniform(1e-3, 5.0))
        shifted = linalg.singular_values(sigma + variance * np.eye(n))
        expected = linalg.singular_values(sigma) + variance
        worst = max(worst, float(np.max(np.abs(shifted - expected))))
    return _result(
        "identity_shift_tightness",
        worst <= 1e-9,
        f"{matrices} Gram matrices, worst absolute deviation {worst:.3e}",
    )


def check_mmse_abc_inequality(master_seed: int = 110, samples: int = 500) -> PropertyResult:
    """Cauchy-Schwarz: a >= b for random spectra and noise variances."""
    g = RngStream(master_seed).generator()
    worst = 0.0
    for _ in range(samples):
        n = int(g.integers(1, 10))
        spectrum = np.sort(g.uniform(0.01, 5.0, size=n))[::-1]
        variance = float(g.uniform(0.0, 10.0))
        abc = analysis.mmse_abc(spectrum, NoiseModel(variance))
        worst = max(worst, abc.b - abc.a)
    return _result(
        "mmse_abc_cauchy_schwarz",
        worst <= 1e-12,
        f"{samples} inputs, worst b - a {worst:.3e}",
    )


def check_eq_power_normalization(master_seed: int = 111, matrices: int = 200) -> PropertyResult:
    """Normalized realizations satisfy sum(sigma_i^2) == N^2 to 1e-8 relative."""
    g = RngStream(master_seed).generator()
    worst = 0.0
    for _ in range(matrices):
        n = int(g.integers(2, 9))
        real = normalize(complex_gaussian((n, n), g))
        total = float(np.sum(real.spectrum**2))
        worst = max(worst, abs(total - n * n) / (n * n))
    return _result(
        "power_normalization",
        worst <= 1e-8,
        f"{matrices} realizations, worst relative deviation {worst:.3e}",
    )


def check_distortion_oracle(master_seed: int = 112, replicates: int = 16, trials: int = 25000) -> PropertyResult:
    """Monte Carlo ZF distortion SNR matches the closed form within 3 SE.

    Also pins the worked diagonal example: spectrum squared (3, 1) at
    variance 0.1 gives 15.0 (ZF closed form and oracle), 15.319 (MMSE
    closed form), and 16.238 (MMSE distortion oracle).
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
        spectrum = linalg.singular_values(h)
        target = analysis.snr_zf(spectrum, noise)
        w = detection.zf_filter(h)
        reps = [
            analysis.empirical_distortion_snr(
                h, w, noise, trials, RngStream(master_seed).child(200, i)
            )
            for i in range(replicates)
        ]
        mean = float(np.mean(reps))
        se = float(np.std(reps, ddof=1) / math.sqrt(replicates))
        ok = ok and abs(mean - target) <= 3.0 * se
        details.append(f"{name}: oracle {mean:.4f} vs formula {target:.4f} (se {se:.4f})")

    spectrum = np.array([math.sqrt(3.0), 1.0])
    zf_formula = analysis.snr_zf(spectrum, noise)
    mmse_formula = analysis.snr_mmse(spectrum, noise)
    w_mmse = detection.mmse_filter(h_diag, noise)
    mmse_oracle = analysis.empirical_distortion_snr(
        h_diag, w_mmse, noise, 100000, RngStream(master_seed).child(201)
    )
    ok = ok and abs(zf_formula - 15.0) / 15.0 <= 5e-4
    ok = ok and abs(mmse_formula - 15.319) / 15.319 <= 5e-4
    ok = ok and abs(mmse_oracle - 16.238) / 16.238 <= 0.02
    details.append(
        f"worked example: zf {zf_formula:.4f}, mmse formula {mmse_formula:.4f}, "
        f"mmse oracle {mmse_oracle:.4f}"
    )
    return _result("distortion_oracle", ok, "; ".join(details))


def check_cdf_dominance(master_seed: int = 113, trials: int = 10000, dims=(2, 4, 8)) -> PropertyResult:
    """Minimum-singular-value CDFs of larger dimensions dominate smaller ones.

    At every grid point, ``F_larger(x) >= F_smaller(x) - 3 * SE`` where the
    SE combines the binomial errors of both curves.
    """
    dims = tuple(sorted(dims))
    table = run_min_singular_cdf(dims, trials=trials, master_seed=master_seed)
    worst = -math.inf
    ok = True
    for small, large in zip(dims[:-1], dims[1:]):
        rows_small = table.select(statistic="cdf_sigma_min", n=small)
        rows_large = table.select(statistic="cdf_sigma_min", n=large)
        for rs, rl in zip(rows_small, rows_large):
            slack = 3.0 * math.hypot(rs["se"], rl["se"])
            deficit = rs["value"] - rl["value"] - slack
            worst = max(worst, deficit)
            ok = ok and deficit <= 0.0
    return _result(
        "cdf_dominance",
        ok,
        f"dims {dims}, {trials} samples each, worst slacked deficit {worst:.3e}",
    )


def run_property_suite(master_seed: int = 0) -> list[PropertyResult]:
    """Run every invariant check; derive per-check seeds from ``master_seed``."""
    base = int(master_seed)
    return [
        check_weyl_validity(base + 101),
        check_gram_spectrum_identity(base + 102),
        check_inverse_condition_identity(base + 103),
        check_svd_contracts(base + 104),
        check_mmse_zero_noise_reduces_to_zf(base + 105),
        check_snr_ordering(base + 106),
        check_snr_zero_noise_limit(base + 107),
        check_cond_ratio_bounds(base + 108),
        check_identity_shift_tightness(base + 109),
        check_mmse_abc_inequality(base + 110),
        check_eq_power_normalization(base + 111),
        check_distortion_oracle(base + 112),
        check_cdf_dominance(base + 113),
    ]
