"""Print, as one JSON object, the environment a lindet process runs in.

Run with the same interpreter and ``PYTHONPATH`` as the measured processes:
importing ``lindet.cli`` here also warms the file cache and byte-code cache
before anything is timed.
"""

from __future__ import annotations

import ctypes
import json
import multiprocessing
import os
import platform
import sys

import lindet
import lindet.cli  # noqa: F401
import numpy

_BLAS_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
)


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def describe() -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "mp_start_method": multiprocessing.get_start_method(),
        "machine": platform.machine(),
        "lindet_version": lindet.__version__,
        "lindet_file": lindet.__file__,
    }


if __name__ == "__main__":
    json.dump(describe(), sys.stdout)
    sys.stdout.write("\n")
