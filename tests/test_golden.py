"""Golden output gate: the bytes of every subcommand are pinned by sha256.

Each CLI case runs 9000 trials, so every grid point of a Monte Carlo
runner spans two blocks (8192 and 808 trials) and ``--workers 2`` really
starts a process pool; CSV bytes must be equal at one and two workers.
``GOLDEN_PLOTS`` pins the gnuplot script that ``--emit-plot`` writes next
to each single-worker CSV, keyed by experiment; the ber-floored script is
the ber script.  A library case pins the public scalar API bit for bit,
followed by one condratio CSV.

Record a hash again only when output bytes change on purpose: a new stream
layout (``STREAM_LAYOUT``), or a change to a table's columns, rounding or
metadata.  Record only the hashes that moved, show with a scratch dump
which rows moved, and give the reason here and in CHANGES.md, which keeps
the history of every earlier recording.  A refactor records nothing.

Last recording: the ("condratio", "csv"), ("condratio", "json"),
``GOLDEN_PLOTS["condratio"]`` and ("library", "bytes") hashes, when
condratio dropped its ``rms_rel_dev`` column and stopped drawing.  Every
other condratio column is byte-identical; the approximation moved from
gnuplot column 4 to 3.  The library stream's arrays are byte-identical,
and only its condratio CSV moved.  The other hashes did not move.

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
    ("condratio", "csv"): "082289e642708833f584c3ea6d88d79b93a891ff3047aaca0b5a27203fb75061",
    ("condratio", "json"): "b65897894567ceebde8b363b7ae739b45ce1fe3a861cb5f4c451f28ae9f94517",
    ("props", "csv"): "5ea34aa85f1053676ceaa34bb8d177ac263a181031d645349fd0a8d44c5e83e4",
    ("library", "bytes"): "08bb1c22850f40195939cbb264443a060f293bdc136b6134ea59dec6a2219436",
}

GOLDEN_PLOTS = {
    "table1": "4af305c7fc263327ac7cbbb790ef7ac0b7bbc2c48da6e5c27f109a3657b4c0ad",
    "gain": "6b640db834d191eee551538c2bd9648379eda22cfc1e7b643ef440ac2cd948c6",
    "cdf": "415971135386d3f91d48ee09d3e5051badfa2c694c660fc17099c9f59b61b2cc",
    "ber": "f6183101c1e7559e16eef98db8e93faaad60c1407aa9c3d92153fd55a18bfa86",
    "condratio": "2b8b391ed948da1700104c0aa317456ce60c5f8a638269ecd54cdc40eaa45673",
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
