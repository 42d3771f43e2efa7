import inspect
import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from lindet import cli, experiments
from lindet.experiments import (
    _result_table,
    run_ber_sweep,
    run_cond_ratio_sweep,
    run_gain_sweep,
    run_min_singular_cdf,
    run_table1,
)
from lindet.properties import PropertyResult


def run(argv):
    return cli.run_cli(argv)


def _die(*args):
    """A block kernel whose worker process dies, as one killed for memory does."""
    os._exit(9)


class TestGridParsing:
    def test_range_inclusive_endpoint(self):
        assert cli._to_snr_grid("0:45:5") == tuple(float(x) for x in range(0, 50, 5))

    def test_range_endpoint_within_half_step(self):
        assert cli._to_snr_grid("0:10:3") == (0.0, 3.0, 6.0, 9.0)

    def test_single_value(self):
        assert cli._to_snr_grid("12.5") == (12.5,)

    def test_comma_list(self):
        assert cli._to_snr_grid("0,5,30") == (0.0, 5.0, 30.0)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            cli._to_snr_grid("0:10:0")

    @staticmethod
    def _reference_range(lo, hi, step):
        grid = []
        x = lo
        while x <= hi + step / 2:
            grid.append(round(x, 10))
            x += step
        return tuple(grid)

    @pytest.mark.parametrize(
        "lo, hi, step",
        [(0, 45, 5), (0, 10, 3), (0, 1, 0.1), (-10, 10, 0.1), (-3.5, 7.25, 0.25), (0, 999, 1)],
    )
    def test_ranges_parse_as_before(self, lo, hi, step):
        assert cli._to_snr_grid(f"{lo}:{hi}:{step}") == self._reference_range(lo, hi, step)

    def test_range_at_the_point_cap(self):
        assert len(cli._to_snr_grid(f"0:{cli._MAX_SNR_POINTS - 1}:1")) == cli._MAX_SNR_POINTS
        with pytest.raises(ValueError, match="points"):
            cli._to_snr_grid(f"0:{cli._MAX_SNR_POINTS}:1")

    @pytest.mark.parametrize(
        "text", ["0:1e12:1", "-1e308:1e308:1", "0:1e300:1e-300"], ids=["1e12", "overflow", "tiny"]
    )
    def test_huge_range_is_rejected_before_it_is_built(self, text, monkeypatch):
        monkeypatch.setattr(cli, "round", lambda *a: pytest.fail("a point was built"), raising=False)
        with pytest.raises(ValueError, match="points"):
            cli._to_snr_grid(text)

    @pytest.mark.parametrize("text", ["nan:1:1", "0:inf:1", "0:10:nan", "-inf:0:1"])
    def test_non_finite_range_parts(self, text):
        with pytest.raises(ValueError, match="finite"):
            cli._to_snr_grid(text)

    def test_step_that_does_not_advance(self):
        with pytest.raises(ValueError, match="advance"):
            cli._to_snr_grid("1e20:1e20:1")

    def test_dims(self):
        assert cli._to_list(int)("2,4,8") == (2, 4, 8)


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert run([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_bad_numeric_value(self, capsys):
        assert run(["ber", "--n", "four", "--trials", "10"]) == 1

    def test_bad_format(self, capsys):
        assert run(["table1", "--format", "xml"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [["table1", "--dims", ","], ["condratio", "--sigma-min", ","]],
        ids=["dims", "sigma-min"],
    )
    def test_empty_list_is_a_usage_error(self, argv, capsys):
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith("usage error: empty list")

    @pytest.mark.parametrize("argv", [["--version"], ["table1", "--help"]], ids=["version", "help"])
    def test_version_and_help_succeed(self, argv, capsys):
        assert run(argv) == 0
        assert capsys.readouterr().out

    def test_unattainable_floor_fails_fast(self, capsys, tmp_path, monkeypatch):
        # sigma_N <= sqrt(N) = 2 for normalized 4x4 channels; no block may run
        monkeypatch.chdir(tmp_path)
        assert run(["ber", "--n", "4", "--sigma-min", "2.5"]) == 2
        assert "unattainable" in capsys.readouterr().err
        assert not (tmp_path / "ber.csv").exists()

    @pytest.mark.parametrize("trials", ["1", "8192"])
    def test_tail_floor_exhausts_in_bounded_time(self, tmp_path, trials):
        # A feasible floor that about no normalized 4x4 channel clears: the
        # default budget of 10**6 attempts must run out in seconds, for a
        # block of one trial and for a full block of 8192.
        src = str(Path(cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-m", "lindet.cli",
             "ber", "--n", "4", "--sigma-min", "1.8", "--snr", "0", "--trials", trials],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert out.returncode == 2
        assert "within 1000000 attempts" in out.stderr
        assert not list(tmp_path.iterdir())

    def test_non_finite_floor_fails(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["ber", "--n", "4", "--snr", "10", "--sigma-min", "nan"]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "ber.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["ber", "--snr", "4000"],
            ["condratio", "--snr=-4000"],
            ["gain", "--snr=-4000"],
            ["gain", "--snr=-inf"],
            ["ber", "--snr", "0,nan"],
            ["table1", "--trials", "0"],
            ["table1", "--dims", "1"],
            ["gain", "--workers", "0"],
            ["cdf", "--seed", "-1"],
            ["ber", "--sigma-min", "-1"],
            ["condratio", "--cond", "0.5"],
            ["table1", "--dims", "2", "--trials", "1" + "0" * 30],
            ["table1", "--dims", "1" + "0" * 400],
            ["props", "--seed", "-1"],
            ["table1", "--dims", "2049"],
            ["gain", "--dims", "4,2049"],
            ["ber", "--n", "4096"],
            ["ber", "--n", "1"],
        ],
        ids=["ber-4000", "condratio-minus-4000", "gain-minus-4000", "gain-minus-inf", "ber-nan",
             "trials-0", "dims-1", "workers-0", "seed-minus-1", "sigma-min-minus-1", "cond-0.5",
             "trials-1e30", "dims-401-digits", "props-seed-minus-1", "table1-dims-2049",
             "gain-dims-2049", "ber-n-4096", "ber-n-1"],
    )
    def test_snr_without_a_noise_variance_fails_fast(self, argv, capsys, tmp_path, monkeypatch):
        # like these SNRs, every value that parses but that a runner rejects
        # is a runtime error, not a usage error, and no block runs
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(experiments, "_run_blocks", lambda *a: pytest.fail("a block ran"))
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["ber", "--n", "1"], "n must be >= 2, got 1"),
            (["ber", "--n", "2049"], "n must be <= 2048, got 2049"),
            (["table1", "--dims", "2,2049"], "dims must be <= 2048, got 2049"),
        ],
    )
    def test_dimension_errors_name_the_flag(self, argv, message, capsys, monkeypatch):
        monkeypatch.setattr(experiments, "_run_blocks", lambda *a: pytest.fail("a block ran"))
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("snr", ["1e20:1e20:1", "0:1e12:1", "nan:1:1", "1:2", "5:0:1"])
    def test_bad_snr_range_is_a_usage_error(self, snr, capsys):
        assert run(["ber", "--snr", snr]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1

    def test_unwritable_output_is_runtime_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run(
            ["table1", "--dims", "2", "--trials", "50", "--out", "missing/dir/out.csv"]
        )
        assert code == 2

    @pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 7.28 TiB"), MemoryError()])
    def test_allocation_failure_is_runtime_error(self, exc, capsys, tmp_path, monkeypatch):
        def run_table1(**kwargs):
            raise exc

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_table1", run_table1)
        assert run(["table1", "--dims", "2"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {str(exc) or 'MemoryError'}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.skipif(
        multiprocessing.get_all_start_methods()[0] != "fork" or len(os.sched_getaffinity(0)) < 2,
        reason="needs 2 usable CPUs and the fork start method",
    )
    def test_dead_pool_worker_is_runtime_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(experiments, "_gain_block", _die)
        assert run(["gain", "--dims", "4", "--snr", "0", "--trials", "9000", "--workers", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())


class TestCsvOutput:
    def test_structure_and_determinism(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["table1", "--dims", "2,4", "--trials", "400", "--seed", "42", "--out", "t1.csv"]
        assert run(argv) == 0
        first = (tmp_path / "t1.csv").read_bytes()
        assert run(argv) == 0
        assert (tmp_path / "t1.csv").read_bytes() == first

        text = first.decode()
        lines = text.splitlines()
        assert lines[0] == "n,mean_sigma_min,se_sigma_min,mean_cond,se_cond"
        assert lines[1].startswith("# seed=42 trials=400 snr_convention=none version=")
        assert len(lines) == 2 + 2

    def test_floats_have_nine_significant_digits(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(["table1", "--dims", "2", "--trials", "400", "--seed", "1", "--out", "t.csv"])
        data_line = (tmp_path / "t.csv").read_text().splitlines()[2]
        mean_field = data_line.split(",")[1]
        significant = re.sub(r"[^0-9]", "", mean_field).lstrip("0")
        assert len(significant) == 9
        assert mean_field == format(float(mean_field), ".9g")

    def test_undefined_standard_errors_are_nan_cells(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["table1", "--dims", "2", "--trials", "1", "--out", "t.csv"]) == 0
        fields = (tmp_path / "t.csv").read_text().splitlines()[2].split(",")
        assert fields[2] == fields[4] == "nan"

    def test_seed_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(cli.SEED_ENV_VAR, "77")
        run(["table1", "--dims", "2", "--trials", "200", "--out", "env.csv"])
        assert "seed=77" in (tmp_path / "env.csv").read_text().splitlines()[1]


class TestJsonOutput:
    def test_strictly_valid_json_with_degenerate_stats(self, tmp_path, monkeypatch):
        # a single trial leaves standard errors undefined; they must land as null
        monkeypatch.chdir(tmp_path)
        assert run(
            ["ber", "--n", "4", "--snr", "10", "--trials", "1",
             "--format", "json", "--out", "one.json"]
        ) == 0
        payload = json.loads((tmp_path / "one.json").read_text(), parse_constant=lambda _: 1 / 0)
        assert payload["rows"][0]["se_ber"] is None

    def test_ber_rows_and_metadata(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run(
            [
                "ber",
                "--n", "4",
                "--snr", "10:20:10",
                "--trials", "2000",
                "--seed", "7",
                "--format", "json",
                "--out", "b.json",
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "b.json").read_text())
        meta = payload["metadata"]
        assert meta["seed"] == 7
        assert meta["trials"] == 2000
        assert meta["snr_convention"] == "receive_n_over_sigma2"
        assert meta["version"]
        assert len(payload["rows"]) == 4
        for key in ("detector", "snr_db", "ber", "bit_errors", "bits"):
            assert key in payload["rows"][0]

    @pytest.mark.parametrize(
        "argv, row_snr",
        [
            (["gain", "--dims", "2", "--snr", "inf", "--trials", "10"], "inf"),
            (["ber", "--n", "2", "--snr", "inf", "--trials", "10"], "inf"),
            (["condratio", "--snr", "inf"], None),
        ],
        ids=["gain", "ber", "condratio"],
    )
    def test_infinite_snr(self, argv, row_snr, tmp_path, monkeypatch, capsys):
        # infinities land as the string marker, in the rows and in metadata
        # lists and values alike (condratio's SNR is metadata only)
        monkeypatch.chdir(tmp_path)
        assert run([*argv, "--format", "json", "--out", "inf.json"]) == 0
        payload = json.loads((tmp_path / "inf.json").read_text(), parse_constant=lambda _: 1 / 0)
        snr = payload["metadata"].get("snr_grid_db", payload["metadata"].get("snr_db"))
        assert snr in (["inf"], "inf")
        assert {row.get("snr_db") for row in payload["rows"]} == {row_snr}

    def test_failed_render_leaves_no_file_and_keeps_an_old_one(self, tmp_path):
        table = _result_table("fake", [{"x": object()}], 0, 1, "none")
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        old.write_text("previous table\n")
        for path in (new, old):
            with pytest.raises(TypeError):
                cli.write_json(table, str(path))
        assert not new.exists()
        assert old.read_text() == "previous table\n"


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.txt").write_text("dims=2,4\ntrials=300\nseed=5\n")
        run(["table1", "--config", "cfg.txt", "--trials", "500", "--out", "c.csv"])
        comment = (tmp_path / "c.csv").read_text().splitlines()[1]
        assert "seed=5" in comment
        assert "trials=500" in comment

    def test_unknown_config_key_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.txt").write_text("frobnicate=1\n")
        assert run(["table1", "--config", "cfg.txt"]) == 1

    def test_comment_lines_are_skipped_and_a_line_without_equals_is_a_usage_error(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.txt").write_text("# only a comment\ndims=2\ntrials=20\n")
        assert run(["table1", "--config", "cfg.txt", "--out", "c.csv"]) == 0
        assert "trials=20" in (tmp_path / "c.csv").read_text().splitlines()[1]
        (tmp_path / "cfg.txt").write_text("dims 2\n")
        assert run(["table1", "--config", "cfg.txt"]) == 1
        assert "expected key=value" in capsys.readouterr().err

    @pytest.mark.parametrize("value, code", [("off", 0), ("maybe", 1)])
    def test_emit_plot_in_config(self, value, code, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.txt").write_text(f"emit_plot={value}\n")
        assert run(["condratio", "--config", "cfg.txt", "--out", "cr.csv"]) == code
        assert (tmp_path / "cr.csv").exists() == (code == 0)
        assert not (tmp_path / "cr.csv.gnuplot").exists()

    def test_missing_config_file_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["table1", "--config", "nope.txt"]) == 1


class TestPlotEmission:
    def test_gnuplot_script_references_csv(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(
            [
                "condratio",
                "--n", "4",
                "--cond", "15",
                "--sigma-min", "0.1,0.3",
                "--snr", "10",
                "--trials", "16",
                "--out", "cr.csv",
                "--emit-plot",
            ]
        )
        script = (tmp_path / "cr.csv.gnuplot").read_text()
        assert '"cr.csv"' in script
        assert "plot" in script

    def test_clauses_find_columns_by_name(self):
        rows = [{"mean_gain_db": 1.0, "n": n, "snr_db": 0.0} for n in (4, 2, 4)]
        script = cli._plot_script(_result_table("gain", rows, 0, 1, "none"), "out/g.csv")
        assert script.splitlines()[-2:] == [
            'plot "g.csv" skip 1 using ($2==2 ? $3 : 1/0):1 with linespoints title "N=2", \\',
            '     "g.csv" skip 1 using ($2==4 ? $3 : 1/0):1 with linespoints title "N=4"',
        ]

    def test_plot_for_json_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        # the script reads its table as CSV, so a JSON table gets none
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(experiments, "_run_blocks", lambda *a: pytest.fail("a block ran"))
        assert run(["ber", "--trials", "10", "--format", "json", "--emit-plot"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())


class TestGainCommand:
    def test_runs_and_writes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = run(
            ["gain", "--dims", "4", "--snr", "0:50:50", "--trials", "500", "--out", "g.csv"]
        )
        assert code == 0
        lines = (tmp_path / "g.csv").read_text().splitlines()
        assert lines[0].startswith("n,snr_db,mean_gain_db")
        assert len(lines) == 2 + 2

    def test_infinite_snr_is_the_zero_noise_limit(self, tmp_path, monkeypatch):
        # both SNRs diverge at zero noise; gain_db defines that limit as 0 dB
        monkeypatch.chdir(tmp_path)
        assert run(["gain", "--dims", "2", "--snr", "inf", "--trials", "10", "--out", "g.csv"]) == 0
        assert (tmp_path / "g.csv").read_text().splitlines()[2] == "2,inf,0,0,0"

    def test_large_array_low_snr_gain_end_to_end(self, tmp_path, monkeypatch):
        # the headline number: ~15 dB mean gain for a 20-antenna array at
        # 0 dB receive SNR (checked loosely here; tightly in acceptance)
        monkeypatch.chdir(tmp_path)
        run(["gain", "--dims", "20", "--snr", "0", "--trials", "1200",
             "--seed", "1", "--format", "json", "--out", "g20.json"])
        payload = json.loads((tmp_path / "g20.json").read_text())
        assert 13.0 <= payload["rows"][0]["mean_gain_db"] <= 17.0


class TestPropsCommand:
    def test_full_suite_passes_and_prints(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = run(["props", "--seed", "0", "--out", "props.csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS ") == 11
        assert "FAIL" not in out
        lines = (tmp_path / "props.csv").read_text().splitlines()
        assert lines[0] == "name,passed,detail"

    def test_violation_exits_2_and_still_writes_the_table(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_property_suite", lambda **kw: [
            PropertyResult("holds", True, "ok"), PropertyResult("broken", False, "worst 1.0"),
        ])
        assert run(["props", "--out", "props.csv"]) == 2
        out, err = capsys.readouterr()
        assert "FAIL broken: worst 1.0\n" in out
        assert err == "1 property violation(s)\n"
        lines = (tmp_path / "props.csv").read_text().splitlines()
        assert lines[2:] == ["holds,1,ok", "broken,0,worst 1.0"]


#: The defaults each subcommand runs with when no flag or config value is
#: given: the runners' own keyword defaults.
CLI_DEFAULTS = {
    run_table1: {"dims": (2, 4, 8, 12, 16, 20), "trials": 10000},
    run_gain_sweep: {
        "dims": (2, 4, 8, 12, 16, 20),
        "snr_grid_db": (0.0, 10.0, 20.0, 30.0, 40.0, 50.0),
        "trials": 5000,
    },
    run_min_singular_cdf: {"dims": (2, 4, 8), "trials": 20000},
    run_ber_sweep: {
        "n": 4,
        "snr_grid_db": (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0),
        "sigma_min_floor": 0.0,
        "trials": 200000,
    },
    run_cond_ratio_sweep: {
        "n": 4,
        "cond_target": 15.0,
        "sigma_min_grid": (0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0),
        "snr_db": 10.0,
        "trials": 200,
    },
}


def _assert_same(got: dict, expected: dict):
    """Equal keys and values, and each value of the expected type."""
    assert got == expected
    assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in expected.items()}


class TestOptionTable:
    @pytest.fixture
    def calls(self, monkeypatch, tmp_path):
        """Every command's runner replaced by one that records its keywords."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        calls = []

        def fake_runner(**kwargs):
            calls.append(kwargs)
            return _result_table("fake", [{"x": 1}], kwargs["master_seed"], 1, "none")

        def fake_suite(**kwargs):
            calls.append(kwargs)
            return [PropertyResult("fake", True, "ok")]

        for command, (runner, _) in cli._COMMANDS.items():
            monkeypatch.setattr(cli, runner, fake_suite if command == "props" else fake_runner)
        return calls

    @pytest.mark.parametrize("command", ["table1", "gain", "cdf", "ber", "condratio", "props"])
    def test_unset_options_are_not_passed(self, calls, command):
        assert run([command]) == 0
        assert calls == [{"master_seed": 0}]

    def test_flags_and_config_arrive_converted(self, calls, tmp_path):
        (tmp_path / "cfg.txt").write_text("sigma_min=0.25\ntrials=300\nworkers=2\n")
        assert run(["ber", "--config", "cfg.txt", "--snr", "0:10:5", "--n", "6",
                    "--trials", "50"]) == 0
        _assert_same(calls[-1], {"n": 6, "snr_grid_db": (0.0, 5.0, 10.0),
                                 "sigma_min_floor": 0.25, "trials": 50, "workers": 2,
                                 "master_seed": 0})
        (tmp_path / "cfg.txt").write_text("cond=12\nsnr=3\n")
        assert run(["condratio", "--config", "cfg.txt", "--sigma-min", "0.1,0.2",
                    "--seed", "9"]) == 0
        _assert_same(calls[-1], {"cond_target": 12.0, "snr_db": 3.0,
                                 "sigma_min_grid": (0.1, 0.2), "master_seed": 9})
        assert run(["gain", "--dims", "2,4", "--snr", "5"]) == 0
        _assert_same(calls[-1], {"dims": (2, 4), "snr_grid_db": (5.0,), "master_seed": 0})

    def test_props_checks_workers_and_passes_only_the_seed(self, calls):
        assert run(["props", "--workers", "3", "--seed", "2"]) == 0
        assert calls == [{"master_seed": 2}]
        assert run(["props", "--workers", "three"]) == 1
        assert run(["props", "--trials", "10"]) == 1

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_every_keyword_is_a_runner_parameter(self, command):
        runner, options = cli._COMMANDS[command]
        keywords = {kw for kw, _ in options.values() if kw is not None}
        assert keywords <= set(inspect.signature(getattr(cli, runner)).parameters)

    def test_runner_is_looked_up_on_the_module(self, monkeypatch, tmp_path):
        # a wrapper bound onto cli.run_gain_sweep must see the CLI call
        monkeypatch.chdir(tmp_path)
        calls = []

        def fake_gain(**kwargs):
            calls.append(kwargs)
            return _result_table("fake", [{"x": 1}], kwargs["master_seed"], 1, "none")

        monkeypatch.setattr(cli, "run_gain_sweep", fake_gain)
        assert run(["gain", "--dims", "2", "--snr", "0", "--trials", "1", "--seed", "4"]) == 0
        assert calls == [{"dims": (2,), "snr_grid_db": (0.0,), "trials": 1, "master_seed": 4}]

    @pytest.mark.parametrize("runner", list(CLI_DEFAULTS), ids=lambda r: r.__name__)
    def test_runner_defaults_are_the_cli_defaults(self, runner):
        params = inspect.signature(runner).parameters
        expected = {**CLI_DEFAULTS[runner], "master_seed": 0, "workers": 1}
        _assert_same({name: params[name].default for name in expected}, expected)
