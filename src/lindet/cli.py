"""Command-line front end: parse flags, dispatch runners, write tables.

Exit codes: 0 on success; 1 on usage errors (flag syntax, values that do
not parse, bad SNR ranges, ``--format``, config files); 2 on runtime
failures, with one ``error:`` line, and on ``props`` invariant violations.
A value that parses but that a runner rejects (``--trials 0``, ``--cond
0.5``, ``--snr 4000``, a 31-digit ``--trials``) is a runtime failure,
raised before any block runs.

Output files are byte-identical across identical invocations.  CSV files
start with a header line followed by a ``#`` metadata comment carrying the
seed, trial count, SNR convention, and package version; JSON files carry
the same metadata object next to the row array.
"""

from __future__ import annotations

import argparse
import csv
import math
import json
import os
import sys

# Runs get their parallelism from processes, one block per core, and
# OpenBLAS's default extra thread only spins between the small per-slice
# calls.  OpenBLAS reads its thread count when numpy loads, so it is set
# here, ahead of the imports that load numpy, unless the user has set one.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(var in os.environ for var in _BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

from ._version import __version__
from .exceptions import LindetError
from .experiments import (
    ResultTable,
    _result_table,
    run_ber_sweep,
    run_cond_ratio_sweep,
    run_gain_sweep,
    run_min_singular_cdf,
    run_table1,
)
from .properties import run_property_suite

SEED_ENV_VAR = "LINDET_SEED"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# value converters (shared by flags and config files)
# ---------------------------------------------------------------------------


def _to_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _to_list(convert):
    """Converter of a nonempty comma list, each item by ``convert``; blank items are skipped."""

    def parse(text: str) -> tuple:
        values = tuple(convert(p) for p in text.split(",") if p.strip())
        if not values:
            raise ValueError(f"empty list: {text!r}")
        return values

    return parse


#: The most points a ``min:max:step`` SNR range may have.
_MAX_SNR_POINTS = 1000


def _to_snr_grid(text: str) -> tuple[float, ...]:
    """Parse ``min:max:step`` (inclusive within half a step), a comma list,
    or a single value, all in dB.

    A range has finite parts, a step that advances every point and at most
    ``_MAX_SNR_POINTS`` points, counted before any is built.
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"SNR range must be min:max:step, got {text!r}")
        lo, hi, step = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (lo, hi, step)):
            raise ValueError(f"SNR range parts must be finite, got {text!r}")
        if step <= 0:
            raise ValueError(f"SNR step must be > 0, got {step}")
        if hi < lo:
            raise ValueError(f"SNR range is empty: {text!r}")
        if not (hi - lo) / step + 0.5 < _MAX_SNR_POINTS:
            raise ValueError(f"SNR range {text!r} has more than {_MAX_SNR_POINTS} points")
        grid = []
        x = lo
        while x <= hi + step / 2:
            if x + step == x:
                raise ValueError(f"SNR step {step} does not advance from {x}")
            grid.append(round(x, 10))
            x += step
        return tuple(grid)
    return _to_list(float)(text)


# ---------------------------------------------------------------------------
# option table and config-file merging
# ---------------------------------------------------------------------------

_SEED = ("master_seed", int)
_COMMON = {"trials": ("trials", int), "seed": _SEED, "workers": ("workers", int)}

#: command -> (runner name, option -> (runner keyword, converter)).  The runner
#: is looked up on this module when the command runs, so replacing
#: ``cli.run_*`` (a tracing wrapper, a test fake) takes effect.  The runner's
#: signature owns every default: an option set by neither a flag nor
#: ``--config`` is not passed.  ``props`` has no blocks to schedule, so it
#: checks ``--workers`` and passes it nowhere (keyword None).
_COMMANDS = {
    "table1": ("run_table1", {"dims": ("dims", _to_list(int)), **_COMMON}),
    "gain": (
        "run_gain_sweep",
        {"dims": ("dims", _to_list(int)), "snr": ("snr_grid_db", _to_snr_grid), **_COMMON},
    ),
    "cdf": ("run_min_singular_cdf", {"dims": ("dims", _to_list(int)), **_COMMON}),
    "ber": (
        "run_ber_sweep",
        {
            "n": ("n", int),
            "snr": ("snr_grid_db", _to_snr_grid),
            "sigma_min": ("sigma_min_floor", float),
            **_COMMON,
        },
    ),
    "condratio": (
        "run_cond_ratio_sweep",
        {
            "n": ("n", int),
            "cond": ("cond_target", float),
            "sigma_min": ("sigma_min_grid", _to_list(float)),
            "snr": ("snr_db", float),
            **_COMMON,
        },
    ),
    "props": ("run_property_suite", {"seed": _SEED, "workers": (None, int)}),
}

#: Options every command takes for the CLI itself: name -> (converter, default).
_OUTPUT = {"out": (str, None), "format": (str, "csv"), "emit_plot": (_to_bool, False)}


def _load_config(path: str) -> dict[str, str]:
    """Read a simple ``key=value`` config file; ``#`` starts a comment."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve_options(command: str, ns: argparse.Namespace) -> tuple[dict, dict]:
    """Runner keywords and output options; a flag wins over its config-file value.

    The seed, unless set, comes from ``LINDET_SEED``, then 0.
    """
    options = _COMMANDS[command][1]
    config = _load_config(ns.config) if ns.config else {}
    unknown = set(config) - set(options) - set(_OUTPUT)
    if unknown:
        raise ValueError(f"unknown config keys for {command}: {sorted(unknown)}")

    def given(name):
        flag = getattr(ns, name)
        return config.get(name) if flag is None else flag

    kwargs = {}
    for name, (keyword, convert) in options.items():
        text = given(name)
        if text is not None:
            value = convert(text)
            if keyword is not None:
                kwargs[keyword] = value
    if "master_seed" not in kwargs:
        env = os.environ.get(SEED_ENV_VAR)
        kwargs["master_seed"] = int(env) if env else 0
    opts = {}
    for name, (convert, default) in _OUTPUT.items():
        text = given(name)
        opts[name] = default if text is None else convert(text)
    if opts["format"] not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {opts['format']!r}")
    if opts["emit_plot"] and opts["format"] != "csv":
        raise ValueError("--emit-plot needs --format csv: its script reads the table as CSV")
    return kwargs, opts


def _build_parser() -> _Parser:
    parser = _Parser(prog="lindet", description=__doc__)
    parser.add_argument("--version", action="version", version=f"lindet {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for command, (_, options) in _COMMANDS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="key=value file; flags override it")
        for name in [*options, *_OUTPUT]:
            if name == "emit_plot":
                p.add_argument("--emit-plot", dest="emit_plot", action="store_const", const="true")
            else:
                p.add_argument(f"--{name.replace('_', '-')}", dest=name, default=None)
    return parser


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".9g")
    return str(value)


def write_csv(table: ResultTable, path: str) -> None:
    """RFC-4180 CSV: header line, then a ``#`` metadata comment, then rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.columns)
        fh.write("# " + " ".join(f"{k}={v}" for k, v in table.metadata.items()) + "\r\n")
        for row in table.rows:
            writer.writerow([_format_value(row.get(c)) for c in table.columns])


def _json_safe(value):
    # keep the output strictly valid JSON: NaN becomes null, infinities
    # become their string markers, also inside lists
    if isinstance(value, list):
        return [_json_safe(v) for v in value]
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
    return value


def write_json(table: ResultTable, path: str) -> None:
    payload = {
        "experiment": table.experiment,
        "metadata": {k: _json_safe(v) for k, v in table.metadata.items()},
        "rows": [{c: _json_safe(row.get(c)) for c in table.columns} for row in table.rows],
    }
    text = json.dumps(payload, indent=2, allow_nan=False)  # a failed render opens no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# plot script emission (gnuplot; nothing is plotted in-process)
# ---------------------------------------------------------------------------


#: experiment -> (axis settings, plot clauses).  A clause names columns as
#: ``{column}``, each replaced by its 1-based position in the table (so
#: ``${ber}`` becomes gnuplot's ``$3``); a clause with ``{dim}`` is repeated
#: once for each ``n`` in the table.
_PLOTS = {
    "table1": (['set xlabel "N"', "set logscale y"], [
        '{n}:{mean_sigma_min}:{se_sigma_min} with yerrorlines title "mean sigma_min"',
        '{n}:{mean_cond}:{se_cond} with yerrorlines title "mean cond"',
    ]),
    "gain": (['set xlabel "receive SNR (dB)"', 'set ylabel "mean gain (dB)"'], [
        '(${n}=={dim} ? ${snr_db} : 1/0):{mean_gain_db} with linespoints title "N={dim}"',
    ]),
    "ber": (['set xlabel "receive SNR (dB)"', 'set ylabel "BER"', "set logscale y"], [
        '{snr_db}:(strcol({detector}) eq "zf" ? ${ber} : 1/0) with linespoints title "ZF"',
        '{snr_db}:(strcol({detector}) eq "mmse" ? ${ber} : 1/0) with linespoints title "MMSE"',
    ]),
    "cdf": (['set xlabel "x"', 'set ylabel "P[sigma_min <= x]"'], [
        '(strcol({statistic}) eq "cdf_sigma_min" && ${n}=={dim} ? ${x} : 1/0):{value} '
        'with lines title "N={dim}"',
    ]),
    "condratio": (['set xlabel "sigma_min"', 'set ylabel "cond(W_mmse)/cond(W_zf)"'], [
        '{sigma_min}:{mean_exact_ratio} with linespoints title "exact"',
        '{sigma_min}:{approx_ratio} with linespoints title "approximation"',
    ]),
}


def _plot_script(table: ResultTable, csv_path: str) -> str:
    name = os.path.basename(csv_path)
    settings, clauses = _PLOTS[table.experiment]
    columns = {c: i for i, c in enumerate(table.columns, start=1)}
    dims = sorted({row.get("n") for row in table.rows})
    using = [
        c.format(**columns, dim=n) for c in clauses for n in (dims if "{dim}" in c else [None])
    ]
    lines = [
        f"# gnuplot script for {name}",
        'set datafile separator ","',
        'set datafile commentschars "#"',
        "set key outside",
        "set grid",
        *settings,
        "plot " + ", \\\n     ".join(f'"{name}" skip 1 using {u}' for u in using),
    ]
    return "\n".join(lines) + "\n"


def _emit(table: ResultTable, opts: dict) -> None:
    """Write the table to ``--out`` (default ``{experiment}.{format}``), and its plot script."""
    path = opts["out"] if opts["out"] is not None else f"{table.experiment}.{opts['format']}"
    (write_csv if opts["format"] == "csv" else write_json)(table, path)
    print(f"wrote {path} ({len(table.rows)} rows)")
    if opts["emit_plot"]:
        with open(path + ".gnuplot", "w", encoding="utf-8") as fh:
            fh.write(_plot_script(table, path))
        print(f"wrote {path}.gnuplot")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _report_props(results: list, seed: int, opts: dict) -> int:
    for r in results:
        print(("PASS" if r.passed else "FAIL") + f" {r.name}: {r.detail}")
    table = _result_table(
        "props",
        [{"name": r.name, "passed": int(r.passed), "detail": r.detail} for r in results],
        seed, 0, "none",
    )
    if opts["out"] is not None:
        _emit(table, {**opts, "emit_plot": False})  # props has no plot
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} property violation(s)", file=sys.stderr)
        return 2
    return 0


def run_cli(argv) -> int:
    """Parse ``argv`` (without the program name) and run one subcommand."""
    try:
        ns = _build_parser().parse_args(list(argv))
        if ns.command is None:
            raise _UsageError("a subcommand is required (table1, gain, cdf, ber, condratio, props)")
        kwargs, opts = _resolve_options(ns.command, ns)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help/--version
        return int(exc.code or 0)
    try:
        result = globals()[_COMMANDS[ns.command][0]](**kwargs)
        if ns.command == "props":
            return _report_props(result, kwargs["master_seed"], opts)
        _emit(result, opts)
        return 0
    # RuntimeError covers a pool whose worker died (BrokenProcessPool), say
    # killed for memory, without importing concurrent.futures at start-up.
    except (LindetError, MemoryError, OSError, OverflowError, RuntimeError, ValueError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
