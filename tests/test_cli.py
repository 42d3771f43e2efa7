import json
import re

import pytest

from lindet import cli


def run(argv):
    return cli.run_cli(argv)


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

    def test_dims(self):
        assert cli._to_dims("2,4,8") == (2, 4, 8)


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

    def test_unattainable_floor_fails_fast(self, capsys, tmp_path, monkeypatch):
        # sigma_N <= sqrt(N) = 2 for normalized 4x4 channels; no block may run
        monkeypatch.chdir(tmp_path)
        assert run(["ber", "--n", "4", "--sigma-min", "2.5"]) == 2
        assert "unattainable" in capsys.readouterr().err
        assert not (tmp_path / "ber.csv").exists()

    def test_unwritable_output_is_runtime_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run(
            ["table1", "--dims", "2", "--trials", "50", "--out", "missing/dir/out.csv"]
        )
        assert code == 2


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
        assert out.count("PASS ") >= 13
        assert "FAIL" not in out
        lines = (tmp_path / "props.csv").read_text().splitlines()
        assert lines[0] == "name,passed,detail"
