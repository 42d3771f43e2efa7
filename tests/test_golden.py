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

All fourteen hashes were recorded again for stream layout 6, which
changed the draws of BER and condition-ratio blocks of more than one
slice.  These blocks now draw and finish their trials in slices of
``max(1, 2**13 // N**2)``: each slice draws its channels (or Haar
factors), then its bits and noise.  A floored block's rejection rounds
after the first acceptance are sized from the acceptance seen so far.
So the ber, ber-floored and condratio data rows moved; in condratio only
``rms_rel_dev``, as the other columns are closed forms.  The table1,
gain, cdf and props rows are byte-identical to layout 5; only the
``stream_layout`` field of their metadata moved.  The library stream's
arrays, ``sample_floored`` and ``synthesize_spectrum`` included, are
byte-identical, as stacks of one keep their draws; its hash moved with
its condratio CSV, whose ``stream_layout`` and ``rms_rel_dev`` moved.
The five ``GOLDEN_PLOTS`` hashes did not move.

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
    ("table1", "csv"): "f7812d4abc02bdf6d07c20a6930191c4f6119a262325b6ffde54faafc7373110",
    ("table1", "json"): "58491c536a439bd58e4a3bc14a8b5546d618376d8e07d02c9906a4231f482846",
    ("gain", "csv"): "57325020bc4eb679a164425e1048bf52ce79f3f962ccafefce03aec615a9858b",
    ("gain", "json"): "8597bea67377c4c94cb3262f63be1cf98189b2250e80e148067bea3747755e9a",
    ("cdf", "csv"): "5c82f848ccb366bf080e5d40139171d054a8e9f07794a2201b17b8781febfe31",
    ("cdf", "json"): "fc59867aca638fbf733dba0e35ed4c9745c169c5f6a1ca3430524be1ee441ec2",
    ("ber", "csv"): "33e0c56851a7b1274c4361c737ee96bfe3263005d0f37b2a235f6f346bb7400e",
    ("ber", "json"): "d2751dec1ab7220759439b31a9cd47e23651c5687200ae33d8f44353008a05e3",
    ("ber-floored", "csv"): "1283dd34abe48be66a9810ab83f93772ba3c072cc75b967fefa60d785ac6bf8b",
    ("ber-floored", "json"): "25aa0692109f25779a492ea24a33ce71a2c31ee1c51592b586d4e6f5fc71708a",
    ("condratio", "csv"): "1f71eb69a3db0a8c6a082cf0fd4448b57ca5d465b131fc1ebf0b69a57a130eaf",
    ("condratio", "json"): "f155765a62289cbb6d49eb7aeab7a4a9541f2c4e102fd0e9a580fa5b187752fb",
    ("props", "csv"): "5ea34aa85f1053676ceaa34bb8d177ac263a181031d645349fd0a8d44c5e83e4",
    ("library", "bytes"): "68af8bcdf2e94c0c8c0ebed3c317072fcaf84d1d2dd29d57d1adf609a21c9fee",
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
