"""Golden output gate: the bytes of every subcommand are pinned by sha256.

Each CLI case runs 9000 trials, so every grid point spans two blocks (8192
and 808 trials) and ``--workers 2`` really starts a process pool; CSV bytes
must be equal at one and two workers.  A library case pins the public
scalar API bit for bit.

The ("gain", "json") and ("library", "bytes") hashes were recorded again
when the MMSE SNR denominator term ``N b - a`` became a cancellation-free
sum of squares; the gain CSV rounds to nine digits and did not move.

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
    empirical_distortion_snr,
    mmse_abc,
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
    ("table1", "csv"): "07407927369be74571ef7d6421df77c62814b8979d64a3d55d9ac2a7cebfefdf",
    ("table1", "json"): "f9c24df95809cb91d1249b70018b592ab433df7f570abd5726fecf2f0dd4eb3d",
    ("gain", "csv"): "20f65ace23b8cc2cdb22e128432ac2458944f479e2fd976a568c56287a12af1a",
    ("gain", "json"): "a437dfb1698346158870734198406bdefc49b252c4055d07bfe3b97855c78917",
    ("cdf", "csv"): "4bbf28b4d39629fe1a7c3bc4414fc7ac53b464aab4f6b0efbb797cff357ff64f",
    ("cdf", "json"): "4f67661b350e386f18674ed7a87be73f2a8da5e0f8d3c9a0e18e5c475725fd6d",
    ("ber", "csv"): "377453fdb67492c002cf4a7b37e8730c25ab070ded073059a962d2d1a584687b",
    ("ber", "json"): "394898af20e67131f2e55e00590afc597dc329cfbb3ec8b96a691c4152723d50",
    ("ber-floored", "csv"): "61c9074648fd8b12b06ba5fb32f33160a91f30b11835d4541f254c6b0efc0b22",
    ("ber-floored", "json"): "65708f5293d1410d10f3e68e6c85be394fe7cba2499f7bf65b1e2d19865797d9",
    ("condratio", "csv"): "76125d9cae81a1a43bc665bc8b49822caffe8f927e24af3f5d0132e59579389d",
    ("condratio", "json"): "676c8681f9cc899ef731643206c69ab2955752b1c997f880e3b6095220808589",
    ("props", "csv"): "e91e5d7f1c335addf33b632f84d5514e0cd5e2bcd7e454ea7a0a793765b41bb9",
    ("library", "bytes"): "905040a950a3aa594a395eaba767b70debe972d25146c67a97d0acae4e74c616",
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
    one = _cli_digest(tmp_path, (*argv, "--workers", "1"), "w1.csv")
    two = _cli_digest(tmp_path, (*argv, "--workers", "2"), "w2.csv")
    assert one == two, "CSV bytes depend on the worker count"
    assert one == GOLDEN[case, "csv"]
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
    table = run_cond_ratio_sweep(4, 15.0, [0.1, 1.0], trials=9000, master_seed=3,
                                 interior="geometric")
    cli.write_csv(table, str(tmp_path / "geometric.csv"))
    data = b"".join(np.ascontiguousarray(p).tobytes() for p in parts)
    return data + (tmp_path / "geometric.csv").read_bytes()


def test_library_output_bytes(tmp_path):
    assert _sha256(_library_bytes(tmp_path)) == GOLDEN["library", "bytes"]
