"""What importing lindet does: the package loads its names on first use,
and the CLI fixes one BLAS thread per process before numpy loads, unless
the user set a thread count; library use keeps numpy's own."""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lindet

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(lindet.__path__) if not m.name.startswith("_"))
SRC = str(Path(lindet.__file__).parents[1])
HAS_PROC = Path("/proc/self/status").is_file()
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Appended to each probe: the process's OS threads and its BLAS thread variables.
_REPORT = """
import json, os
with open("/proc/self/status") as fh:
    threads = int(next(line for line in fh if line.startswith("Threads:")).split()[1])
print(json.dumps({"threads": threads, "env": {k: os.environ.get(k) for k in %r}}))
""" % (BLAS_VARS,)


def _fresh(code: str, cwd=None, **env) -> str:
    """Stdout of ``code`` run in a fresh interpreter, with no BLAS thread
    variable set but those in ``env``."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=dict(base, PYTHONPATH=path, **env),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return out.stdout


def _threads(code: str, **env) -> dict:
    return json.loads(_fresh(code + _REPORT, **env).splitlines()[-1])


class TestLazyPackage:
    def test_import_loads_no_submodule_and_no_numpy(self):
        code = "import sys, lindet; print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('lindet.')))"
        assert _fresh(code).strip() == "['lindet._version']"

    def test_every_name_and_submodule_resolves_as_an_attribute(self):
        code = (
            "import importlib, sys, lindet\n"
            f"for m in {SUBMODULES!r}:\n"
            "    assert getattr(lindet, m) is importlib.import_module('lindet.' + m), m\n"
            "for name in lindet.__all__:\n"
            "    value = getattr(lindet, name)\n"
            "    assert value is getattr(sys.modules[value.__module__], name), name\n"
            "print(len(lindet.__all__))\n"
        )
        assert _fresh(code).strip() == str(len(lindet.__all__))

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from lindet import *", namespace)
        del namespace["__builtins__"]
        assert namespace == {name: getattr(lindet, name) for name in lindet.__all__}

    def test_dir_lists_names_and_submodules(self):
        assert {*lindet.__all__, *SUBMODULES, "__version__"} <= set(dir(lindet))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'lindet' has no attribute 'frobnicate'"):
            lindet.frobnicate
        with pytest.raises(ImportError):
            from lindet import frobnicate  # noqa: F401


@pytest.mark.skipif(not HAS_PROC, reason="reads Threads: from /proc/self/status")
class TestBlasThreads:
    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="OpenBLAS starts one thread on one CPU")
    def test_cli_import_leaves_one_thread(self):
        assert _threads("import lindet.cli") == {
            "threads": 1, "env": dict.fromkeys(BLAS_VARS, "1"),
        }

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs")
    @pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_user_thread_count_is_kept(self, var):
        env = {**dict.fromkeys(BLAS_VARS), var: "2"}
        assert _threads("import lindet.cli", **{var: "2"}) == {"threads": 2, "env": env}

    def test_library_use_keeps_numpys_default(self):
        default = _threads("import numpy")
        assert default["env"] == dict.fromkeys(BLAS_VARS)
        code = "import sys, lindet\nlindet.run_table1([2], trials=10, master_seed=0)\nassert 'lindet.cli' not in sys.modules"
        assert _threads(code) == default


@pytest.mark.parametrize(
    "argv",
    [["ber", "--n", "64", "--snr", "10", "--trials", "512"], ["table1", "--dims", "64", "--trials", "1024"]],
    ids=["ber", "table1"],
)
def test_n64_bytes_do_not_depend_on_the_blas_thread_count(argv, tmp_path):
    for threads in ("1", "2"):
        run = f"import lindet.cli; assert lindet.cli.run_cli({argv + ['--out', threads + '.csv']!r}) == 0"
        _fresh(run, cwd=tmp_path, OPENBLAS_NUM_THREADS=threads)
    assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()
