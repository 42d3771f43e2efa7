"""The benchmark's workloads and the correctness check of each invocation.

Every workload is a closed loop: one ``lindet`` process at a time, started
by ``run.py``, each taking the benchmark seed as ``--seed``.  The
checks use the paper's reference values at the tolerances of
``tests/test_acceptance.py``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is recorded in ``NOTES.md``."""

    name: str
    argv: tuple[str, ...]
    #: lindet invocations per iteration; invocation ``k`` runs at ``seed + k``.
    invocations: int
    #: Seconds after which an invocation's whole process tree is killed.
    timeout_s: float
    check: Callable[[list[dict]], str | None]


def read_rows(path: str) -> list[dict]:
    """Rows of a lindet CSV table (the ``#`` metadata line is skipped)."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _check_ber(rows: list[dict]) -> str | None:
    n, trials, snrs = 4, 20000, (0.0, 10.0, 20.0, 30.0, 40.0)
    by = {(r["detector"], float(r["snr_db"])): r for r in rows}
    if sorted(by) != sorted((d, s) for d in ("zf", "mmse") for s in snrs):
        return f"unexpected (detector, snr) rows: {sorted(by)}"
    for (detector, snr), r in by.items():
        if int(r["bits"]) != trials * 2 * n:
            return f"{detector} @ {snr} dB: bits {r['bits']} != {trials * 2 * n}"
    for snr in snrs:
        zf, mmse = by["zf", snr], by["mmse", snr]
        if float(mmse["ber"]) > float(zf["ber"]) + 3 * float(zf["se_paired_diff"]):
            return f"@ {snr} dB: MMSE BER {mmse['ber']} exceeds ZF BER {zf['ber']} + 3 SE"
    for detector in ("zf", "mmse"):
        for lo, hi in zip(snrs, snrs[1:]):
            a, b = by[detector, lo], by[detector, hi]
            slack = 3 * math.hypot(float(a["se_ber"]), float(b["se_ber"]))
            if float(b["ber"]) > float(a["ber"]) + slack:
                return f"{detector}: BER rises from {a['ber']} @ {lo} dB to {b['ber']} @ {hi} dB"
    return None


def _check_gain(rows: list[dict]) -> str | None:
    if len(rows) != 18:
        return f"expected 18 grid points, got {len(rows)}"
    low = [r for r in rows if int(r["n"]) == 20 and float(r["snr_db"]) == 0.0]
    if not low or abs(float(low[0]["mean_gain_db"]) - 15.0) > 2.0:
        return f"N=20 @ 0 dB gain {low[0]['mean_gain_db'] if low else None}, want 15 +/- 2 dB"
    for r in rows:
        if float(r["snr_db"]) == 50.0 and float(r["mean_gain_db"]) > 0.5:
            return f"N={r['n']} @ 50 dB gain {r['mean_gain_db']} dB, want <= 0.5 dB"
    return None


def _check_tail(rows: list[dict]) -> str | None:
    tail = {float(r["x"]): float(r["value"]) for r in rows if r["statistic"] == "tail_scaled_sigma_min"}
    for x in (0.5, 1.0, 2.0):
        if x not in tail:
            return f"no tail row at x={x}"
        ref = math.exp(-x - x * x / 2)
        if abs(tail[x] - ref) > 0.03:
            return f"tail at x={x}: {tail[x]} vs exp(-x - x^2/2) = {ref:.4f}, want +/- 0.03"
    return None


def _check_props(rows: list[dict]) -> str | None:
    failed = [r["name"] for r in rows if r["passed"] != "1"]
    if not rows or failed:
        return f"property checks failed: {failed or 'no rows'}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ber-floored",
            ("ber", "--n", "4", "--snr", "0:40:10", "--sigma-min", "0.3",
             "--trials", "20000", "--workers", "1"),
            invocations=1,
            timeout_s=40.0,
            check=_check_ber,
        ),
        Workload(
            "gain-sweep",
            ("gain", "--dims", "4,12,20", "--snr", "0:50:10", "--trials", "16384", "--workers", "2"),
            invocations=1,
            timeout_s=50.0,
            check=_check_gain,
        ),
        Workload(
            "tail-n64",
            ("cdf", "--dims", "64", "--trials", "16384", "--workers", "2"),
            invocations=1,
            timeout_s=60.0,
            check=_check_tail,
        ),
        Workload(
            "props-suite",
            ("props",),
            invocations=4,
            timeout_s=20.0,
            check=_check_props,
        ),
    )
}
