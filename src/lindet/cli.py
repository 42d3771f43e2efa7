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


def _to_int(text: str) -> int:
    return int(text)


def _to_float(text: str) -> float:
    return float(text)


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
# option schema and config-file merging
# ---------------------------------------------------------------------------

# name -> (converter, default); None defaults are resolved in _resolve_options.
_COMMON = {
    "seed": (_to_int, None),  # resolved against LINDET_SEED afterwards
    "out": (str, None),
    "format": (str, "csv"),
    "workers": (_to_int, 1),
    "emit_plot": (_to_bool, False),
}

_SCHEMAS: dict[str, dict] = {
    "table1": {
        **_COMMON,
        "dims": (_to_dims, (2, 4, 8, 12, 16, 20)),
        "trials": (_to_int, 10000),
    },
    "gain": {
        **_COMMON,
        "dims": (_to_dims, (2, 4, 8, 12, 16, 20)),
        "snr": (_to_snr_grid, (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)),
        "trials": (_to_int, 5000),
    },
    "cdf": {
        **_COMMON,
        "dims": (_to_dims, (2, 4, 8)),
        "trials": (_to_int, 20000),
    },
    "ber": {
        **_COMMON,
        "n": (_to_int, 4),
        "snr": (_to_snr_grid, (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0)),
        "sigma_min": (_to_float, 0.0),
        "trials": (_to_int, 200000),
    },
    "condratio": {
        **_COMMON,
        "n": (_to_int, 4),
        "cond": (_to_float, 15.0),
        "sigma_min": (_to_float_list, (0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0)),
        "snr": (_to_float, 10.0),
        "trials": (_to_int, 200),
    },
    "props": {
        **_COMMON,
    },
}


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


def _resolve_options(command: str, ns: argparse.Namespace) -> dict:
    """Merge flag values, config-file values, and defaults, in that order."""
    schema = _SCHEMAS[command]
    config: dict[str, str] = {}
    if getattr(ns, "config", None):
        config = _load_config(ns.config)
        unknown = set(config) - set(schema)
        if unknown:
            raise ValueError(f"unknown config keys for {command}: {sorted(unknown)}")
    opts = {}
    for name, (convert, default) in schema.items():
        flag_value = getattr(ns, name, None)
        if flag_value is not None:
            opts[name] = convert(flag_value) if isinstance(flag_value, str) else flag_value
        elif name in config:
            opts[name] = convert(config[name])
        else:
            opts[name] = default
    if opts["seed"] is None:
        env = os.environ.get(SEED_ENV_VAR)
        opts["seed"] = int(env) if env else 0
    if opts["format"] not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {opts['format']!r}")
    opts["out_explicit"] = opts["out"] is not None
    if opts["out"] is None:
        opts["out"] = f"{command}.{opts['format']}"
    return opts


def _build_parser() -> _Parser:
    parser = _Parser(prog="lindet", description=__doc__)
    parser.add_argument("--version", action="version", version=f"lindet {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for command, schema in _SCHEMAS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="key=value file; flags override it")
        for name in schema:
            if name == "emit_plot":
                p.add_argument("--emit-plot", dest="emit_plot", action="store_const", const=True)
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


#: command -> (runner, option -> runner keyword), beyond the common three.
_RUNNERS = {
    "table1": (run_table1, {"dims": "dims"}),
    "gain": (run_gain_sweep, {"dims": "dims", "snr": "snr_grid_db"}),
    "cdf": (run_min_singular_cdf, {"dims": "dims"}),
    "ber": (run_ber_sweep, {"n": "n", "snr": "snr_grid_db", "sigma_min": "sigma_min_floor"}),
    "condratio": (
        run_cond_ratio_sweep,
        {"n": "n", "cond": "cond_target", "sigma_min": "sigma_min_grid", "snr": "snr_db"},
    ),
}
_RUNNER_COMMON = {"trials": "trials", "seed": "master_seed", "workers": "workers"}


def _handle_runner(command: str, opts: dict) -> int:
    runner, keywords = _RUNNERS[command]
    table = runner(**{kw: opts[name] for name, kw in {**keywords, **_RUNNER_COMMON}.items()})
    _emit(table, opts)
    return 0


def _handle_props(opts: dict) -> int:
    results = run_property_suite(opts["seed"])
    for r in results:
        print(("PASS" if r.passed else "FAIL") + f" {r.name}: {r.detail}")
    table = _result_table(
        "props",
        ["name", "passed", "detail"],
        [{"name": r.name, "passed": int(r.passed), "detail": r.detail} for r in results],
        opts["seed"], 0, "none",
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
        opts = _resolve_options(ns.command, ns)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help/--version
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        if ns.command == "props":
            return _handle_props(opts)
        return _handle_runner(ns.command, opts)
    except (LindetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
