"""Run one ``lindet`` CLI call with every layer boundary traced.

Usage::

    python3 bench/tracer.py SPANS_DIR RUN_ID -- <lindet arguments>

The wrappers live in this file only; nothing under ``src/`` is changed.
They time calls into each lindet module's public functions, patched in
every lindet module that holds a reference to them, and three entry points
that the experiment runners use directly:

* ``numpy.linalg.svd``/``solve``/``qr``/``norm`` (layer ``linalg``);
* the generator returned by ``RngStream.generator``, through a delegating
  proxy (layer ``channel``);
* ``lindet.experiments.ProcessPoolExecutor`` (layer ``experiments``), whose
  workers record their own spans and append them to ``SPANS_DIR``.

A span is ``[id, parent, run, layer, kind, name, start, end, counts]``.
Spans stay in memory and are written as JSON lines when the process (or a
pool task) ends, one file per process.  The exit code is the CLI's.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

LAYERS = ("cli", "experiments", "channel", "linalg", "detection", "analysis", "properties")
NUMPY_LINALG = ("svd", "solve", "qr", "norm")

#: The process's tracer; pool workers find it here when they run a task.
TRACER = None


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, spans_dir: str, run_id: int):
        self.spans_dir = spans_dir
        self.run_id = run_id
        self.start_process()

    def start_process(self):
        """Start afresh in this process: a forked worker inherits the
        parent's spans and open stack, which are not its own."""
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self._counter = 0

    def new_id(self) -> int:
        self._counter += 1
        return (self.pid << 32) | self._counter

    def current(self):
        return self.stack[-1] if self.stack else None

    def record(self, sid, parent, layer, kind, name, start, end, counts=None):
        self.spans.append([sid, parent, self.run_id, layer, kind, name, start, end, counts])

    def wrap(self, layer, kind, name, fn, measure=None):
        """``fn`` wrapped in a span; ``measure(args, kwargs, result)`` gives counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current()
            sid = tracer.new_id()
            tracer.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.record(sid, parent, layer, kind, name, start, end)
                raise
            end = time.perf_counter()
            tracer.stack.pop()
            counts = measure(args, kwargs, result) if measure is not None else None
            tracer.record(sid, parent, layer, kind, name, start, end, counts)
            return result

        return traced

    def flush(self):
        """Append this process's spans to its file and forget them."""
        if not self.spans:
            return
        path = os.path.join(self.spans_dir, f"{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
        self.spans = []


# ---------------------------------------------------------------------------
# counts recorded at the boundaries
# ---------------------------------------------------------------------------


def _batch(a) -> int:
    shape = getattr(a, "shape", ())
    count = 1
    for d in shape[:-2]:
        count *= d
    return count


def _measure_decomposition(args, kwargs, result):
    a = args[0] if args else kwargs.get("a")
    return {"matrices": _batch(a), "bytes": int(getattr(a, "nbytes", 0))}


def _measure_norm(args, kwargs, result):
    # A norm over the last two axes of a stack of matrices is how the runners
    # power-normalize freshly drawn channels; count those matrices.
    x = args[0] if args else kwargs.get("x")
    axis = args[2] if len(args) > 2 else kwargs.get("axis")
    ndim = getattr(x, "ndim", 0)
    if ndim >= 3 and isinstance(axis, tuple) and {a % ndim for a in axis} == {ndim - 2, ndim - 1}:
        return {"normalized": _batch(x)}
    return None


def _measure_normals(args, kwargs, result):
    return {"normals": int(getattr(result, "size", 1))}


def _measure_check(args, kwargs, result):
    return {"failed": int(not result.passed)}


def _measure_write(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


#: Per runner, (grid points on normalized channels, other grid points) from
#: its bound arguments.
_RUNNER_GRID = {
    "run_gain_sweep": lambda b: (len(b["dims"]) * len(b["snr_grid_db"]), 0),
    "run_min_singular_cdf": lambda b: (len(b["dims"]), 1),
    "run_ber_sweep": lambda b: (len(b["snr_grid_db"]), 0),
}


def _runner_trials(fn):
    """Counts for a ``run_*`` runner: trials, and those on normalized channels.

    A runner not listed in ``_RUNNER_GRID`` is timed but records no counts.
    """
    units = _RUNNER_GRID.get(fn.__name__)
    if units is None:
        return None
    signature = inspect.signature(fn)

    def measure(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        normalized, other = units(bound.arguments)
        trials = int(bound.arguments["trials"])
        return {"trials": trials * (normalized + other), "normalized_trials": trials * normalized}

    return measure


# ---------------------------------------------------------------------------
# generator proxy and process pool
# ---------------------------------------------------------------------------


class TracedGenerator:
    """Delegates to a NumPy Generator, timing every method call."""

    def __init__(self, generator, tracer: Tracer):
        self._generator = generator
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._generator, name)
        if not callable(attr):
            return attr
        measure = _measure_normals if name == "standard_normal" else None
        return self._tracer.wrap("channel", "draw", name, attr, measure)


class TracedPool(ProcessPoolExecutor):
    """Process pool whose lifetime is a span and whose tasks trace themselves."""

    def __init__(self, max_workers=None, mp_context=None, initializer=None, initargs=(), **kwargs):
        tracer = TRACER
        self._span = (tracer.new_id(), tracer.current(), time.perf_counter())
        self._workers = max_workers or os.cpu_count() or 1
        super().__init__(
            max_workers,
            mp_context,
            initializer=_worker_start,
            initargs=(tracer.spans_dir, tracer.run_id, initializer, initargs),
            **kwargs,
        )

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(_run_task, self._span[0], fn, args, kwargs)

    def shutdown(self, wait=True, **kwargs):
        super().shutdown(wait=wait, **kwargs)
        sid, parent, start = self._span
        TRACER.record(
            sid, parent, "experiments", "pool", "ProcessPoolExecutor",
            start, time.perf_counter(), {"workers": self._workers},
        )


def _worker_start(spans_dir, run_id, initializer, initargs):
    if TRACER is None:  # a spawned worker starts from a fresh import
        install(spans_dir, run_id)
    else:
        TRACER.start_process()
    if initializer is not None:
        initializer(*initargs)


def _run_task(pool_span, fn, args, kwargs):
    tracer = TRACER
    sid = tracer.new_id()
    tracer.stack.append(sid)
    start = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        end = time.perf_counter()
        tracer.stack.pop()
        tracer.record(sid, pool_span, "experiments", "task", "task", start, end)
        tracer.flush()


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------


def _public_functions(module):
    for name, value in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == module.__name__
        ):
            yield name, value


def install(spans_dir: str, run_id: int) -> Tracer:
    """Patch lindet and numpy.linalg in this process; return the tracer."""
    global TRACER
    import numpy
    import lindet.cli  # noqa: F401  (loads every lindet module)
    from lindet import channel, experiments

    TRACER = tracer = Tracer(spans_dir, run_id)
    modules = {layer: sys.modules[f"lindet.{layer}"] for layer in LAYERS}
    replacements = {}
    for layer, module in modules.items():
        for name, fn in _public_functions(module):
            measure = None
            if layer == "experiments" and name.startswith("run_"):
                measure = _runner_trials(fn)
            elif layer == "properties" and name.startswith("check_"):
                measure = _measure_check
            elif layer == "cli" and name in ("write_csv", "write_json"):
                measure = _measure_write
            replacements[id(fn)] = tracer.wrap(layer, "api", name, fn, measure)
    # Patch every lindet module namespace that refers to a wrapped function,
    # so callers that imported it by name see the wrapper too.
    for name, module in list(sys.modules.items()):
        if name == "lindet" or name.startswith("lindet."):
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    for name in NUMPY_LINALG:
        fn = getattr(numpy.linalg, name)
        measure = _measure_norm if name == "norm" else _measure_decomposition
        setattr(numpy.linalg, name, tracer.wrap("linalg", "numpy", name, fn, measure))

    make_generator = channel.RngStream.generator
    channel.RngStream.generator = tracer.wrap(
        "channel", "generator", "generator",
        lambda self: TracedGenerator(make_generator(self), tracer),
    )
    experiments.ProcessPoolExecutor = TracedPool
    return tracer


def main(argv) -> int:
    started = time.perf_counter()
    spans_dir, run_id = argv[0], int(argv[1])
    if argv[2] != "--":
        raise SystemExit("usage: tracer.py SPANS_DIR RUN_ID -- <lindet arguments>")
    import lindet.cli

    imported = time.perf_counter()
    tracer = install(spans_dir, run_id)
    tracer.record(tracer.new_id(), None, "cli", "import", "import", started, imported)
    try:
        return lindet.cli.run_cli(argv[3:])
    finally:
        tracer.flush()


if __name__ == "__main__":
    # Import this file under its module name so pool workers unpickle the
    # task wrapper from ``tracer``, not from ``__main__``.
    import tracer as _tracer

    sys.exit(_tracer.main(sys.argv[1:]))
