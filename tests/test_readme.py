"""README's examples stay runnable: the library example runs, and every
``lindet`` line of the command-line block parses and resolves to keywords
its runner accepts (no runner runs)."""

import inspect
import re
import shlex
from pathlib import Path

import pytest

from lindet import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


COMMAND_LINES = [
    line for block in _blocks("sh") for line in block.splitlines() if line.startswith("lindet ")
]


def test_library_example_runs(capsys):
    [example] = _blocks("python")
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_every_subcommand_has_a_command_line():
    assert sorted(line.split()[1] for line in COMMAND_LINES) == sorted(cli._COMMANDS)


@pytest.mark.parametrize("line", COMMAND_LINES, ids=lambda line: line.split()[1])
def test_command_line_resolves(line, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    ns = cli._build_parser().parse_args(shlex.split(line, comments=True)[1:])
    kwargs, _ = cli._resolve_options(ns.command, ns)
    inspect.signature(getattr(cli, cli._COMMANDS[ns.command][0])).bind(**kwargs)
