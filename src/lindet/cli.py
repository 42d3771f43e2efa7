"""Command-line front end: parse flags, dispatch runners, write tables.

Exit codes: 0 on success, 1 on usage errors (unknown flags, malformed or
out-of-range values), 2 on runtime failures (sampling exhaustion,
unwritable output) and on ``props`` invariant violations.

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


def _to_dims(text: str) -> tuple[int, ...]:
    dims = tuple(int(p) for p in text.split(",") if p.strip())
    if not dims:
        raise ValueError("empty dimension list")
    return dims


def _to_float_list(text: str) -> tuple[float, ...]:
    vals = tuple(float(p) for p in text.split(",") if p.strip())
    if not vals:
        raise ValueError("empty value list")
    return vals


def _to_snr_grid(text: str) -> tuple[float, ...]:
    """Parse ``min:max:step`` (inclusive within half a step), a comma list,
    or a single value, all in dB."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"SNR range must be min:max:step, got {text!r}")
        lo, hi, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError(f"SNR step must be > 0, got {step}")
        if hi < lo:
            raise ValueError(f"SNR range is empty: {text!r}")
        grid = []
        x = lo
        while x <= hi + step / 2:
            grid.append(round(x, 10))
            x += step
        return tuple(grid)
    if "," in text:
        return _to_float_list(text)
    return (float(text),)


# ---------------------------------------------------------------------------
# option table and config-file merging
# ---------------------------------------------------------------------------

_SEED = ("master_seed", int)
_COMMON = {"trials": ("trials", int), "seed": _SEED, "workers": ("workers", int)}

#: command -> (runner, option -> (runner keyword, converter)).  The runner's
#: signature owns every default: an option set by neither a flag nor
#: ``--config`` is not passed.  ``props`` has no blocks to schedule, so it
#: checks ``--workers`` and passes it nowhere (keyword None).
_COMMANDS = {
    "table1": (run_table1, {"dims": ("dims", _to_dims), **_COMMON}),
    "gain": (
        run_gain_sweep,
        {"dims": ("dims", _to_dims), "snr": ("snr_grid_db", _to_snr_grid), **_COMMON},
    ),
    "cdf": (run_min_singular_cdf, {"dims": ("dims", _to_dims), **_COMMON}),
    "ber": (
        run_ber_sweep,
        {
            "n": ("n", int),
            "snr": ("snr_grid_db", _to_snr_grid),
            "sigma_min": ("sigma_min_floor", float),
            **_COMMON,
        },
    ),
    "condratio": (
        run_cond_ratio_sweep,
        {
            "n": ("n", int),
            "cond": ("cond_target", float),
            "sigma_min": ("sigma_min_grid", _to_float_list),
            "snr": ("snr_db", float),
            **_COMMON,
        },
    ),
    "props": (run_property_suite, {"seed": _SEED, "workers": (None, int)}),
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
    opts["out_explicit"] = opts["out"] is not None
    if opts["out"] is None:
        opts["out"] = f"{command}.{opts['format']}"
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


def _metadata_comment(metadata: dict) -> str:
    keys = ["seed", "trials", "snr_convention", "version"]
    parts = [f"{k}={metadata[k]}" for k in keys if k in metadata]
    parts += [f"{k}={v}" for k, v in metadata.items() if k not in keys]
    return "# " + " ".join(str(p) for p in parts)


def write_csv(table: ResultTable, path: str) -> None:
    """RFC-4180 CSV: header line, then a ``#`` metadata comment, then rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.columns)
        fh.write(_metadata_comment(table.metadata) + "\r\n")
        for row in table.rows:
            writer.writerow([_format_value(row.get(c)) for c in table.columns])


def _json_safe(value):
    # keep the output strictly valid JSON: NaN becomes null, infinities
    # become their string markers
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
    return value


def write_json(table: ResultTable, path: str) -> None:
    payload = {
        "experiment": table.experiment,
        "metadata": table.metadata,
        "rows": [{c: _json_safe(row.get(c)) for c in table.columns} for row in table.rows],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


def write_table(table: ResultTable, path: str, fmt: str) -> None:
    if fmt == "csv":
        write_csv(table, path)
    else:
        write_json(table, path)


# ---------------------------------------------------------------------------
# plot script emission (gnuplot; nothing is plotted in-process)
# ---------------------------------------------------------------------------


def _plot_script(table: ResultTable, csv_path: str) -> str:
    name = os.path.basename(csv_path)
    lines = [
        f"# gnuplot script for {name}",
        'set datafile separator ","',
        'set datafile commentschars "#"',
        "set key outside",
        "set grid",
    ]
    if table.experiment == "table1":
        lines += [
            'set xlabel "N"',
            "set logscale y",
            f'plot "{name}" skip 1 using 1:2:3 with yerrorlines title "mean sigma_min", \\',
            f'     "{name}" skip 1 using 1:4:5 with yerrorlines title "mean cond"',
        ]
    elif table.experiment == "gain":
        dims = sorted({row["n"] for row in table.rows})
        lines += ['set xlabel "receive SNR (dB)"', 'set ylabel "mean gain (dB)"']
        clauses = [
            f'"{name}" skip 1 using ($1=={n} ? $2 : 1/0):3 with linespoints title "N={n}"'
            for n in dims
        ]
        lines.append("plot " + ", \\\n     ".join(clauses))
    elif table.experiment == "ber":
        lines += [
            'set xlabel "receive SNR (dB)"',
            'set ylabel "BER"',
            "set logscale y",
            f'plot "{name}" skip 1 using 2:(strcol(1) eq "zf" ? $3 : 1/0) '
            'with linespoints title "ZF", \\',
            f'     "{name}" skip 1 using 2:(strcol(1) eq "mmse" ? $3 : 1/0) '
            'with linespoints title "MMSE"',
        ]
    elif table.experiment == "cdf":
        dims = sorted({row["n"] for row in table.rows if row["statistic"] == "cdf_sigma_min"})
        lines += ['set xlabel "x"', 'set ylabel "P[sigma_min <= x]"']
        clauses = [
            f'"{name}" skip 1 using (strcol(1) eq "cdf_sigma_min" && $2=={n} ? $3 : 1/0):4 '
            f'with lines title "N={n}"'
            for n in dims
        ]
        lines.append("plot " + ", \\\n     ".join(clauses))
    elif table.experiment == "condratio":
        lines += [
            'set xlabel "sigma_min"',
            'set ylabel "cond(W_mmse)/cond(W_zf)"',
            f'plot "{name}" skip 1 using 1:2 with linespoints title "exact", \\',
            f'     "{name}" skip 1 using 1:4 with linespoints title "approximation"',
        ]
    else:
        lines.append(f'plot "{name}" skip 1 using 1:2 with linespoints')
    return "\n".join(lines) + "\n"


def _emit(table: ResultTable, opts: dict) -> None:
    path = opts["out"]
    write_table(table, path, opts["format"])
    print(f"wrote {path} ({len(table.rows)} rows)")
    if opts["emit_plot"]:
        script_path = path + ".gnuplot"
        with open(script_path, "w", encoding="utf-8") as fh:
            fh.write(_plot_script(table, path))
        print(f"wrote {script_path}")


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
    if opts["out_explicit"]:
        write_table(table, opts["out"], opts["format"])
        print(f"wrote {opts['out']} ({len(table.rows)} rows)")
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
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help/--version
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        result = _COMMANDS[ns.command][0](**kwargs)
        if ns.command == "props":
            return _report_props(result, kwargs["master_seed"], opts)
        _emit(result, opts)
        return 0
    except (LindetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
