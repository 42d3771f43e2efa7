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

All fourteen hashes were recorded again for stream layout 3, which
changed no draw.  ``condratio`` now reports the filters' condition numbers
and their ratio from the explicit formulas on the prescribed spectrum,
and ``se_exact_ratio`` gave way to ``rms_rel_dev`` in the same column, so
its data rows moved; ``cond_ratio_exact`` evaluates the same formulas on
the channel's singular values, which moves its four fields in the library
stream; the props table lost three NumPy-only checks, gained
``filter_conditioning_closed_form`` and ``approx_ratio_exact_above_sqrt_v``,
and ``distortion_oracle`` draws 64 replicates of 6250 trials.  The table1,
gain, cdf, ber and ber-floored data rows are byte-identical to layout 2;
only the ``stream_layout`` field of their metadata moved.  The five
``GOLDEN_PLOTS`` hashes did not move.

The ("props", "csv") and ("library", "bytes") hashes were recorded again
when ``empirical_distortion_snr`` moved onto the runners' block driver:
block ``i`` draws from its own stream ``rng.key + (i,)`` instead of every
block drawing from ``rng`` in turn, and the signal energy is ``N`` per
trial instead of a sum of ``|x|^2``.  In the library stream only the
oracle's SNR moved (14.051695772509698 to 14.077555038194088); the Haar
factor, which the stream now builds as ``_phase_fixed_q`` of a Gaussian
draw since ``haar_unitary`` is gone, kept its bits.  In the props table
only the ``distortion_oracle`` detail moved: one run of 400000 trials per
channel with a delta-method SE replaced 64 replicates, and the stated
false-alarm rate is now the union bound, at most 0.81%.  The twelve CLI
hashes and the five ``GOLDEN_PLOTS`` hashes did not move.

All fourteen hashes were recorded again for stream layout 4, which
changed the draws of floored channels only.  A floored BER block and
``sample_floored`` with a floor above 0 now draw candidate bidiagonals of
the normalized complex model, reject them on one Sturm count and
decompose only the accepted ones; the BER block then draws a Haar ``V``
and filters ``diag(s) V^H`` in factor form, and ``sample_floored``
returns ``U diag(s) V^H``.  So only the ber-floored data rows and the
``sample_floored`` matrix of the library stream moved.  The table1, gain,
cdf, unfloored ber and condratio data rows and the props rows are
byte-identical to layout 3; only the ``stream_layout`` field of their
metadata moved, in the library stream's condratio CSV too.  The five
``GOLDEN_PLOTS`` hashes did not move.

All fourteen hashes were recorded again for stream layout 5, which
changed the draws of floored BER blocks of more than one trial only.  A
floored block's slots now take the accepted candidates of one stream in
turn, where each slot had its own batch of candidates a round.  So only
the ber-floored data rows moved.  The table1, gain, cdf, unfloored ber
and condratio data rows and the props rows are byte-identical to layout
4; only the ``stream_layout`` field of their metadata moved, in the
library stream's condratio CSV too.  The library stream's arrays,
``sample_floored`` included, are byte-identical: a stack of one still
draws rounds of 1, 2, 4, ... candidates.  The five ``GOLDEN_PLOTS``
hashes did not move.

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
from lindet.channel import _phase_fixed_q, complex_gaussian

CLI_CASES = {
    "table1": ("table1", "--dims", "2,4,8"),
    "gain": ("gain", "--dims", "2,4", "--snr", "0,20,40"),
    "cdf": ("cdf", "--dims", "2,4,8"),
    "ber": ("ber", "--n", "4", "--snr", "0,10,20"),
    "ber-floored": ("ber", "--n", "4", "--snr", "0,20", "--sigma-min", "0.3"),
    "condratio": ("condratio", "--n", "4", "--sigma-min", "0.1,1.0"),
}

GOLDEN = {
    ("table1", "csv"): "1157861d9c1c876f808c52fa190a8dbf91382e8949dac1584f922b88bfa65f47",
    ("table1", "json"): "dc37b1ad059a00bab65124e6342207a0c1e378cb3d009acade80a0aac9a21e66",
    ("gain", "csv"): "0a5a502a1353b335410d640cf9a422fdbbd36e62a45e0b33d4fdb50de5f8a5d1",
    ("gain", "json"): "54588bf4d676c8a36cd86d28fcdcd542634a9cae3415b98d40a9a73536dd4284",
    ("cdf", "csv"): "a72536c44431f9408d495520ecc536f75818e359923b0a238236e2340bbc518c",
    ("cdf", "json"): "eb81ecf57a26cc5ed212a903b3050033cfb0ad982000ee2563f24205d1f26cba",
    ("ber", "csv"): "f079950c6987b123856a6450745efa11835d99e63d917bccc561d2b64563db08",
    ("ber", "json"): "5385bc1487488770d10b43966feb0e4a183bea4095edc1697df5ac26d0ccbe79",
    ("ber-floored", "csv"): "4a1f7b1f84dc2e4e4e9b5e0cceafd5a8e2884328d7bbb12410d3e558d907f124",
    ("ber-floored", "json"): "74ca58bad2742730642ebf2a2da2425ed5eacc3bb4731a885f4e716a5139cfe5",
    ("condratio", "csv"): "4debff0504922fd8e3d9a52f3c49848da40256b5b2baf1b3211f2c7ac6803860",
    ("condratio", "json"): "f63b4c167090ab9a6ac8993661b70a60bc5b87a500f89d4fa9c7704b7badbf41",
    ("props", "csv"): "677cbf06accb15b56547370ad997ae383ac0331de3a853bbe37125ed54325367",
    ("library", "bytes"): "8d5ee62044e16eb04af08932a4dc263130229c2e08fff936c1a03b971e59e5f7",
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
    parts.append(_phase_fixed_q(complex_gaussian((4, 4), stream.child(2).generator())))
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
