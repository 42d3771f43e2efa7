"""Self-checks of the benchmark harness, its tracer and its span arithmetic."""

import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import spans
from spans import Span
from workloads import WORKLOADS, Workload

BENCH = Path(run.__file__).resolve().parent

# Small budgets that still start process pools (two blocks per grid point)
# and, for ``ber``, rejection rounds.
SMALL = (
    Workload("small-gain", ("gain", "--dims", "4", "--snr", "0,10", "--trials", "9000",
                                "--workers", "2"), 1, 60.0, lambda rows: None),
    Workload("small-ber", ("ber", "--n", "4", "--snr", "0,20", "--sigma-min", "0.3",
                               "--trials", "9000", "--workers", "2"), 1, 60.0, lambda rows: None),
)


def _span(sid, parent, layer, kind, name, start, end, counts=None):
    return Span(sid, parent, 0, layer, kind, name, start, end, counts)


def test_covered_takes_the_union_clipped_to_the_span():
    assert spans.covered(0.0, 10.0, []) == 0.0
    assert spans.covered(0.0, 10.0, [(2.0, 6.0), (3.0, 8.0)]) == 6.0
    assert spans.covered(0.0, 10.0, [(-5.0, 1.0), (9.0, 12.0)]) == 2.0
    assert spans.covered(0.0, 10.0, [(1.0, 9.0), (2.0, 3.0)]) == 8.0
    assert spans.covered(0.0, 10.0, [(11.0, 12.0)]) == 0.0


def test_self_time_and_parallel_efficiency_on_synthetic_spans():
    # run_gain_sweep [0, 10] -> pool [1, 9] -> two parallel tasks, each with
    # an SVD child; one draw in the runner itself.
    synthetic = [
        _span(1, None, "experiments", "api", "run_gain_sweep", 0.0, 10.0,
              {"trials": 200, "normalized_trials": 200}),
        _span(2, 1, "experiments", "pool", "ProcessPoolExecutor", 1.0, 9.0, {"workers": 2}),
        _span(3, 2, "experiments", "task", "task", 2.0, 6.0),
        _span(4, 2, "experiments", "task", "task", 3.0, 8.0),
        _span(5, 3, "linalg", "numpy", "svd", 2.0, 4.0, {"matrices": 100, "bytes": 1600}),
        _span(6, 4, "linalg", "numpy", "svd", 3.0, 5.0, {"matrices": 100, "bytes": 1600}),
        _span(7, 1, "channel", "draw", "standard_normal", 0.5, 1.0, {"normals": 800}),
        _span(8, 3, "linalg", "numpy", "norm", 5.0, 5.5, {"normalized": 250}),
    ]
    selfs = spans.self_times(synthetic)
    assert selfs[1] == pytest.approx(10.0 - 8.5)  # pool and draw cover 8.5 s
    assert selfs[2] == pytest.approx(8.0 - 6.0)  # the tasks' union is [2, 8]
    assert selfs[3] == pytest.approx(4.0 - 2.5)
    assert selfs[4] == pytest.approx(5.0 - 2.0)

    m = spans.layer_metrics(synthetic)
    assert m["experiments.self_s"] == pytest.approx(1.5 + 2.0 + 1.5 + 3.0)
    assert m["experiments.run_s"] == pytest.approx(10.0)
    assert m["experiments.worker_busy_s"] == pytest.approx(9.0)
    assert m["experiments.pools_started"] == 1
    assert m["experiments.parallel_efficiency"] == pytest.approx(9.0 / (2 * 10.0))
    assert m["linalg.svd_s"] == pytest.approx(4.0)
    assert m["linalg.svd_matrices"] == 200
    assert m["linalg.svd_per_trial"] == pytest.approx(1.0)
    assert m["linalg.bytes_computed"] == 3200
    assert m["linalg.self_s"] == pytest.approx(4.5)
    assert m["channel.draw_s"] == pytest.approx(0.5)
    assert m["channel.normals_drawn"] == 800
    assert m["channel.accept_ratio"] == pytest.approx(200 / 250)
    assert set(m) == set(spans.UNITS) - {"trace.overhead_s"}


def test_cli_self_time_excludes_import_and_writing():
    synthetic = [
        _span(1, None, "cli", "import", "import", 0.0, 1.0),
        _span(2, None, "cli", "api", "run_cli", 1.0, 4.0),
        _span(3, 2, "cli", "api", "write_table", 3.0, 3.5),
        _span(4, 3, "cli", "api", "write_csv", 3.1, 3.5, {"bytes": 42}),
    ]
    m = spans.layer_metrics(synthetic)
    assert m["cli.import_s"] == pytest.approx(1.0)
    assert m["cli.write_s"] == pytest.approx(0.5)
    assert m["cli.self_s"] == pytest.approx(3.0 - 0.5)
    assert m["cli.output_bytes"] == 42


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_traced_bytes_equal_untraced_and_counts_repeat(workload, workdir):
    plain = run.run_iteration(workload, 3, None)
    counts = []
    for attempt in range(2):
        spans_dir = workdir / f"spans-{attempt}"
        spans_dir.mkdir()
        traced = run.run_iteration(workload, 3, spans_dir)
        assert plain.errors == [] and traced.errors == []
        assert traced.digests == plain.digests
        metrics = spans.layer_metrics(spans.load(str(spans_dir)))
        counts.append({k: v for k, v in metrics.items() if spans.UNITS[k] in ("count", "bytes")})
    assert counts[0] == counts[1]
    # Pool workers' spans reached the trace.
    assert counts[0]["experiments.pools_started"] == 2
    assert counts[0]["linalg.svd_matrices"] >= 18000


def test_timeout_kills_the_whole_process_tree(workdir):
    grandchild = "import time; time.sleep(60)"
    child = (
        "import subprocess, sys, time; "
        f"subprocess.Popen([sys.executable, '-c', {grandchild!r}]); time.sleep(60)"
    )
    start = time.monotonic()
    p = run.spawn([sys.executable, "-c", child], workdir / "timeout.log", 1.0)
    assert p.returncode is None
    assert time.monotonic() - start < 15.0


def test_without_lindet_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    p = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ber-floored", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


def test_checks_use_the_reference_values():
    tail = [
        {"statistic": "tail_scaled_sigma_min", "x": str(x), "value": str(math.exp(-x - x * x / 2))}
        for x in (0.5, 1.0, 2.0)
    ]
    assert WORKLOADS["tail-n64"].check(tail) is None
    tail[1]["value"] = str(float(tail[1]["value"]) + 0.031)
    assert "x=1.0" in WORKLOADS["tail-n64"].check(tail)
    props = [{"name": "a", "passed": "1"}, {"name": "snr_ratio_unity_limit", "passed": "0"}]
    assert "snr_ratio_unity_limit" in WORKLOADS["props-suite"].check(props)
