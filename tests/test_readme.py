"""The README's examples run as written."""

import json
import re
import shlex
from pathlib import Path

import pytest

from rectmvt.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


def _cli_commands() -> list[list[str]]:
    commands = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("rectmvt "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


COMMANDS = _cli_commands()


def test_readme_lists_every_subcommand():
    assert {argv[0] for argv in COMMANDS} == {"locate", "verify", "sweep", "grad-check", "parse"}


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv[:3]) for argv in COMMANDS])
def test_readme_cli_example_runs(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # sweep --csv writes into the working directory
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    if argv[0] != "parse":
        json.loads(out)


@pytest.mark.parametrize("index", range(len(_blocks("python"))))
def test_readme_python_example_runs(index, capsys):
    exec(compile(_blocks("python")[index], "README.md", "exec"), {})
    assert capsys.readouterr().out
