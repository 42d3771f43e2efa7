"""lindet benchmark: spawn the ``lindet`` CLI per workload, check and time it.

Usage (from the repository root)::

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload repeats one iteration (one or more ``lindet`` processes, one
at a time) as often as fits in ``--seconds``, at least once.  Every
invocation's output is checked against the paper's reference values; a
nonzero exit, a timeout (which kills the whole process tree) or a failed
check counts the invocation as failed.

``--trace 0`` reports the end-to-end metrics: the median over iterations of
``wall_s``, ``cpu_s`` (user + system of the whole process tree, reaped pool
workers included) and ``peak_rss_mb`` (largest resident set in the tree),
plus ``setup_s``, the median time for a fresh interpreter to import
``lindet.cli``.  ``--trace 1`` runs every iteration once untraced and once
under ``tracer.py`` and reports the per-layer metrics of ``spans.py``
(medians over iterations), checking that traced output bytes equal
untraced ones.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
from workloads import WORKLOADS, Workload, read_rows

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
BASELINE_DIGESTS = BENCH / "baseline_digests.json"
#: setup_s is the median of at least this many imports, taken
#: ``SETUP_PER_ITERATION`` after each iteration so that they spread over the
#: run like the iterations do, and topped up at its end.
SETUP_SAMPLES = 24
SETUP_PER_ITERATION = 4
SETUP_TIMEOUT_S = 30.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class SetupError(Exception):
    """The benchmark cannot run here (no lindet sources, broken import)."""


@dataclass
class Process:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int | None  # None after a timeout


@dataclass
class Iteration:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    digests: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _process_group_gone(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return True
    return False


def _kill_tree(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list, log_path: Path, timeout_s: float) -> Process:
    """Run ``argv`` in its own process group; kill the group on timeout."""
    timed_out = threading.Event()

    def expire():
        timed_out.set()
        _kill_tree(proc.pid)

    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=log, stderr=subprocess.STDOUT, env=child_env(),
            cwd=WORK, start_new_session=True,
        )
    timer = threading.Timer(timeout_s, expire)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    except BaseException:
        _kill_tree(proc.pid)
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Wait until every process of the tree has ended (after a timeout the
    # killed pool workers are reaped by init, not by us).
    deadline = time.monotonic() + 10.0
    while not _process_group_gone(proc.pid) and time.monotonic() < deadline:
        if timed_out.is_set():
            _kill_tree(proc.pid)
        time.sleep(0.01)
    return Process(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        returncode=None if timed_out.is_set() else proc.returncode,
    )


def _tail(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def run_iteration(w: Workload, seed: int, spans_dir: Path | None) -> Iteration:
    """One iteration of ``w``; traced under ``tracer.py`` when ``spans_dir`` is set."""
    out_dir = WORK / w.name
    out_dir.mkdir(parents=True, exist_ok=True)
    it = Iteration()
    for k in range(w.invocations):
        tag = "traced" if spans_dir else "plain"
        out = out_dir / f"{tag}-{k}.csv"
        log = out_dir / f"{tag}-{k}.log"
        out.unlink(missing_ok=True)
        lindet_args = [*w.argv, "--seed", str(seed + k), "--out", str(out)]
        if spans_dir:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_dir), str(k), "--", *lindet_args]
        else:
            argv = [sys.executable, "-m", "lindet.cli", *lindet_args]
        p = spawn(argv, log, w.timeout_s)
        it.attempted += 1
        it.wall_s += p.wall_s
        it.cpu_s += p.cpu_s
        it.peak_rss_mb = max(it.peak_rss_mb, p.peak_rss_mb)
        problems = []
        digest = None
        if p.returncode is None:
            problems.append(f"timed out after {w.timeout_s:g} s, process tree killed")
        else:
            if p.returncode != 0:
                problems.append(f"exit code {p.returncode} ({_tail(log)})")
            if out.is_file():
                digest = hashlib.sha256(out.read_bytes()).hexdigest()
                problem = w.check(read_rows(str(out)))
                if problem:
                    problems.append(problem)
            else:
                problems.append("no output table written")
        it.digests.append(digest)
        if problems:
            it.failed += 1
            it.errors.append(f"seed {seed + k} ({tag}): " + "; ".join(problems))
    return it


def setup_sample() -> float:
    """Time for a fresh interpreter to import ``lindet.cli``."""
    p = spawn([sys.executable, "-c", "import lindet.cli"], WORK / "setup.log", SETUP_TIMEOUT_S)
    if p.returncode != 0:
        raise SetupError(f"importing lindet.cli failed: {_tail(WORK / 'setup.log')}")
    return p.wall_s


def probe_environment() -> dict:
    """Environment of the measured processes; fails if lindet is not ours."""
    if not (ROOT / "src" / "lindet" / "cli.py").is_file():
        raise SetupError(f"no lindet sources under {ROOT / 'src'}")
    WORK.mkdir(exist_ok=True)
    p = spawn([sys.executable, str(BENCH / "envinfo.py")], WORK / "env.log", SETUP_TIMEOUT_S)
    if p.returncode != 0:
        raise SetupError(f"environment probe failed: {_tail(WORK / 'env.log')}")
    env = json.loads((WORK / "env.log").read_text().strip().splitlines()[-1])
    if not Path(env["lindet_file"]).resolve().is_relative_to(ROOT / "src"):
        raise SetupError(f"lindet imported from {env['lindet_file']}, not from {ROOT / 'src'}")
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    env["git_commit"] = commit or "unknown (not a git checkout)"
    return env


def report_digests(w: Workload, seed: int, digests: list) -> None:
    """Print each output digest next to the recorded baseline digest.

    A changed digest is printed, not failed: a later change may alter the
    output bytes on purpose.
    """
    baseline = json.loads(BASELINE_DIGESTS.read_text()).get(w.name, {})
    for k, digest in enumerate(digests):
        known = baseline.get(str(seed + k))
        state = "no baseline" if known is None else ("same" if known == digest else "CHANGED")
        print(f"digest {w.name} seed {seed + k}: {digest} (baseline {known or '-'}: {state})")


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure ``w`` for ``seconds``; return its result object."""
    iterations, traced, layer_runs, setup = [], [], [], []
    spans_dir = WORK / w.name / "spans"
    start = time.perf_counter()
    durations = []
    while True:
        began = time.perf_counter()
        if not trace:
            iterations.append(run_iteration(w, seed, None))
            setup += [setup_sample() for _ in range(SETUP_PER_ITERATION)]
        else:
            # Alternate which side runs first, so that an effect of running
            # second does not show up as tracing overhead.
            shutil.rmtree(spans_dir, ignore_errors=True)
            spans_dir.mkdir(parents=True)
            traced_first = len(iterations) % 2 == 1
            first = run_iteration(w, seed, spans_dir if traced_first else None)
            second = run_iteration(w, seed, None if traced_first else spans_dir)
            plain, t = (second, first) if traced_first else (first, second)
            if t.digests != plain.digests:
                t.failed = t.attempted
                t.errors.append("traced output bytes differ from untraced output bytes")
            iterations.append(plain)
            traced.append(t)
            metrics = spans.layer_metrics(spans.load(str(spans_dir)))
            metrics["trace.overhead_s"] = t.wall_s - plain.wall_s
            layer_runs.append(metrics)
        # Start another iteration only if one as long as the typical one so
        # far still ends within the run's time.
        durations.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            break

    everything = iterations + traced
    first = iterations[0].digests
    for it in everything[1:]:
        if it.digests != first and not it.errors:
            it.failed = it.attempted
            it.errors.append("output bytes differ between iterations of the same seed")
    for it in everything:
        for error in it.errors:
            print(f"FAILED {w.name} {error}")
    report_digests(w, seed, first)

    attempted = sum(it.attempted for it in everything)
    failed = sum(it.failed for it in everything)
    repeatable = True
    if trace:
        for name, unit in spans.UNITS.items():
            values = {run[name] for run in layer_runs}
            if unit in ("count", "bytes") and len(values) > 1:
                print(f"FAILED {w.name}: {name} differs between iterations: {sorted(values)}")
                repeatable = False
        metrics = {
            name: {"value": statistics.median(run[name] for run in layer_runs), "unit": unit}
            for name, unit in spans.UNITS.items()
        }
    else:
        metrics = {
            name: {"value": statistics.median(getattr(it, name) for it in iterations), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
            if name != "setup_s"
        }
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample())
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        for name in ("wall_s", "cpu_s"):
            samples = ", ".join(f"{getattr(it, name):.3f}" for it in iterations)
            print(f"{w.name} {name} per iteration: {samples}")
        print(f"{w.name} setup_s per import: " + ", ".join(f"{t:.3f}" for t in setup))
    print(f"{w.name}: {len(iterations)} iteration(s), {attempted} invocation(s), {failed} failed")
    return {"correct": failed == 0 and repeatable, "attempted": attempted, "failed": failed, "metrics": metrics}


def print_table(results: dict) -> None:
    print(f"{'workload':<12} {'metric':<32} {'value':>16}  unit")
    for name, r in results.items():
        rows = dict(r["metrics"])
        rows["failed_ratio"] = {"value": r["failed"] / r["attempted"], "unit": "ratio"}
        for metric, m in rows.items():
            print(f"{name:<12} {metric:<32} {m['value']:>16.6g}  {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        env = probe_environment()
        print("env " + json.dumps(env, sort_keys=True))
        results = {
            name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            for name in names
        }
    except SetupError as exc:
        print(f"benchmark setup failed: {exc}", file=sys.stderr)
        return 2
    print_table(results)
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": m for name, r in results.items() for metric, m in r["metrics"].items()
            },
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
