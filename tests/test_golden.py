"""Golden output gate: the bytes of every subcommand are pinned by sha256.

Each CLI case runs 9000 trials, so every grid point spans two blocks (8192
and 808 trials) and ``--workers 2`` really starts a process pool; CSV bytes
must be equal at one and two workers.  A library case pins the public
scalar API bit for bit.

The ("gain", "json") and ("library", "bytes") hashes were recorded again
when the MMSE SNR denominator term ``N b - a`` became a cancellation-free
sum of squares; the gain CSV rounds to nine digits and did not move.

The ("props", "csv") and ("library", "bytes") hashes were recorded again
when ``normalize`` and ``sample_floored`` moved onto the runners'
normalizer, a norm over the last two axes of a stack, which rounds
differently from the flat 2-D norm they used before.  The props table
moved only in the ``power_normalization`` detail (worst relative
deviation 6.661e-16 instead of 8.882e-16); the twelve CLI hashes did not
move.

The ("library", "bytes") hash was recorded again when the public
``zf_filter`` and ``mmse_filter`` moved onto the runners' filter kernel,
which solves the Gram systems where the public filters used to invert the
Gram matrix; the two round differently in the last bits, which moves the
distortion-oracle SNR computed with ``zf_filter``.  In the same recording
the stream gained ``mmse_filter`` and the four ``cond_ratio_exact``
fields, which now share the runners' kernels too.  The twelve CLI hashes
and the props hash did not move.

The ("props", "csv") hash was recorded again when the invariant suite
moved onto stacks and the runners' kernels: each check draws the
dimensions of all its samples first and then one stack per dimension, so
the checks see other matrices, and ``mmse_zero_noise_equals_zf`` compares
the zero-variance filter with ``np.linalg.inv`` instead of with itself.
Names, sample counts, tolerances and pass rules did not change; only the
worst-case figures in the detail column moved.  The twelve CLI hashes and
the library hash did not move.

All fourteen hashes were recorded again for stream layout 2.  The table1,
gain and cdf runners now draw singular values from the bidiagonal
Gaussian model instead of decomposing dense draws, which changes their
draws and data rows; every table's metadata gained ``stream_layout`` and
``block_elements``, which changes the ``#`` line of every CSV (and the
condratio CSV inside the library stream) and the metadata of every JSON.
The ber, ber-floored and condratio data rows are byte-identical to
layout 1: at N <= 22 the element budget keeps 8192-matrix blocks.  In the
same recording the props details of ``snr_mmse_dominates_snr_zf``,
``cond_ratio_bounded_by_one`` and ``cdf_dominance`` moved: their running
worst now starts at -inf, and the CDF deficit is taken only where its
standard error is nonzero, so they report the sampled worst instead of
0.  Pass rules did not change.

The ("props", "csv") hash was recorded again when
``mmse_abc_cauchy_schwarz`` began to report its worst ``b - a`` over the
N >= 2 samples only: at N = 1 ``a == b`` exactly, so the figure read
0.000e+00 at every seed that samples N = 1.  It now reads -1.460e-06 at
seed 0; the pass rule still covers every sample.  Only that detail moved;
the other thirteen hashes did not.

``GOLDEN_PLOTS`` pins the gnuplot script that ``--emit-plot`` writes next
to each single-worker CSV, keyed by experiment; the ber-floored script is
the ber script.

The hashes were recorded with numpy 2.4.6 on OpenBLAS 0.3.31
(scipy-openblas, Haswell kernels), CPython 3.11, x86_64.  Another numpy
or BLAS build may round an SVD or a solve differently in the last bit and
fail here without any change to lindet.
"""

import hashlib

import numpy as np
import pytest

from lindet import (
    NoiseModel,
    RngStream,
    cond_ratio_exact,
    empirical_distortion_snr,
    mmse_abc,
    mmse_filter,
    normalize,
    qpsk_modulate,
    qpsk_slice,
    run_cond_ratio_sweep,
    sample_floored,
    sample_standard_gaussian,
    snr_mmse,
    snr_zf,
    synthesize_spectrum,
    zf_filter,
)
from lindet import cli
from lindet.channel import haar_unitary

CLI_CASES = {
    "table1": ("table1", "--dims", "2,4,8"),
    "gain": ("gain", "--dims", "2,4", "--snr", "0,20,40"),
    "cdf": ("cdf", "--dims", "2,4,8"),
    "ber": ("ber", "--n", "4", "--snr", "0,10,20"),
    "ber-floored": ("ber", "--n", "4", "--snr", "0,20", "--sigma-min", "0.3"),
    "condratio": ("condratio", "--n", "4", "--sigma-min", "0.1,1.0"),
}

GOLDEN = {
    ("table1", "csv"): "9a16ce0ad923bbc9a6c834f0c70929ac52782e0d01e458ceac7d4dad43f95050",
    ("table1", "json"): "60bb6277c1640df1d86c3a0798386bb08285be7e08e724e3b97ee0b1b2ed4f39",
    ("gain", "csv"): "bd5334ac00cccf530953a13627e69633e6991b34888d4a4e1891d54ac68dbb35",
    ("gain", "json"): "821c052be8ab85872326583d0aa59b64b00d5bd21bcb25c7caf754c6de6c979b",
    ("cdf", "csv"): "617856f6d75d17ab8de8452c470a81febec4b6e318b3f88d6a9c3f0f9b20ee9d",
    ("cdf", "json"): "739fff7db707fd7a5c15644afc3e5b5e9f91a3b9683f76a74a98706a17d55e71",
    ("ber", "csv"): "a3f280130bcffd60655746a11e7b2e5e12e3a4fdc5d9934d8bc9334be94b818b",
    ("ber", "json"): "7d56990e1499437518be97385305dfb6a5e1b973770cc46c06129df5baa09549",
    ("ber-floored", "csv"): "68f6c574eaecbcd98e8772ee1765a48e55d46dcf6b8e1403ddfd7c7d97e90d95",
    ("ber-floored", "json"): "8d19f71d8e0c6102d736ae656aaf0657911779b72cf6fe7c08e3e7463f4ae0aa",
    ("condratio", "csv"): "0c10a5174ae4da72f38d4b3096c5dacf56e8abf2037127318b0fe84509dd4726",
    ("condratio", "json"): "a15aeb9963855b8dc0c1c221c90603f12f807c3fdb64babb0c1ae4f44d030560",
    ("props", "csv"): "04e756722d31cef125ef49a04ea79543673361b91f2bd20ac4e7e9cfe7bd8345",
    ("library", "bytes"): "2bce99f3311997d580fa8d76d5e6902bcbc8127d4a86ee4fa4abf832c65016ea",
}

GOLDEN_PLOTS = {
    "table1": "4af305c7fc263327ac7cbbb790ef7ac0b7bbc2c48da6e5c27f109a3657b4c0ad",
    "gain": "6b640db834d191eee551538c2bd9648379eda22cfc1e7b643ef440ac2cd948c6",
    "cdf": "415971135386d3f91d48ee09d3e5051badfa2c694c660fc17099c9f59b61b2cc",
    "ber": "f6183101c1e7559e16eef98db8e93faaad60c1407aa9c3d92153fd55a18bfa86",
    "condratio": "c231fe316b1f2db8e1d6344a8f4f31c57efaa164a6770c013f14062618babb72",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_digest(tmp_path, argv, name):
    out = tmp_path / name
    assert cli.run_cli([*argv, "--out", str(out)]) == 0
    return _sha256(out.read_bytes())


@pytest.mark.parametrize("case", list(CLI_CASES))
def test_cli_output_bytes(case, tmp_path, capsys):
    argv = (*CLI_CASES[case], "--trials", "9000", "--seed", "3")
    one = _cli_digest(tmp_path, (*argv, "--workers", "1", "--emit-plot"), "w1.csv")
    two = _cli_digest(tmp_path, (*argv, "--workers", "2"), "w2.csv")
    assert one == two, "CSV bytes depend on the worker count"
    assert one == GOLDEN[case, "csv"]
    plot = _sha256((tmp_path / "w1.csv.gnuplot").read_bytes())
    assert plot == GOLDEN_PLOTS[CLI_CASES[case][0]]
    as_json = _cli_digest(tmp_path, (*argv, "--format", "json"), "out.json")
    assert as_json == GOLDEN[case, "json"]


def test_props_output_bytes(tmp_path, capsys):
    out = tmp_path / "props.csv"
    assert cli.run_cli(["props", "--seed", "0", "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == GOLDEN["props", "csv"]


def _library_bytes(tmp_path) -> bytes:
    stream = RngStream(11)
    parts = []
    for k, interior in enumerate(("top", "geometric")):
        real = synthesize_spectrum(5, 15.0, 0.2, stream.child(1, k), interior=interior)
        parts += [real.matrix, real.spectrum]
    parts.append(haar_unitary(4, stream.child(2).generator()))
    parts.append(sample_floored(4, 0.3, stream.child(3)).matrix)
    h = normalize(sample_standard_gaussian(4, stream.child(7))).matrix
    spectrum = np.array([2.5, 1.0, 0.4, 0.05])
    for variance in (0.0, 1e-6, 0.1, 10.0):
        noise = NoiseModel(variance)
        abc = mmse_abc(spectrum, noise)
        parts.append(np.array([snr_zf(spectrum, noise), snr_mmse(spectrum, noise),
                               abc.a, abc.b, abc.c]))
    bits = stream.child(4).generator().integers(0, 2, size=64)
    x = qpsk_modulate(bits)
    parts += [x, qpsk_slice(x + 0.8 * stream.child(5).generator().standard_normal(32))]
    parts.append(np.array([
        empirical_distortion_snr(h, zf_filter(h), NoiseModel(0.1), 9000, stream.child(6))
    ]))
    parts.append(mmse_filter(h, NoiseModel(0.1)).matrix)
    report = cond_ratio_exact(h, NoiseModel(0.1))
    parts.append(np.array([report.exact_ratio, report.approx_ratio,
                           report.cond_w_zf, report.cond_w_mmse]))
    table = run_cond_ratio_sweep(4, 15.0, [0.1, 1.0], trials=9000, master_seed=3,
                                 interior="geometric")
    cli.write_csv(table, str(tmp_path / "geometric.csv"))
    data = b"".join(np.ascontiguousarray(p).tobytes() for p in parts)
    return data + (tmp_path / "geometric.csv").read_bytes()


def test_library_output_bytes(tmp_path):
    assert _sha256(_library_bytes(tmp_path)) == GOLDEN["library", "bytes"]
