"""Every `g2mono ...` line in the README's fenced blocks runs as written."""

import pathlib
import re
import shlex

from g2mono.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(),
                        flags=re.M | re.S)
    return [line.strip() for block in blocks for line in block.splitlines()
            if line.strip().startswith("g2mono ")]


def test_readme_lists_every_subcommand():
    used = {shlex.split(line)[1] for line in readme_commands()}
    assert used == {"solve", "sweep", "verify", "green", "energy", "series"}


def test_readme_commands_exit_0(tmp_path, monkeypatch, capsys):
    # in README order: `energy --profile profile.csv` reads the first solve
    monkeypatch.chdir(tmp_path)
    for line in readme_commands():
        try:
            code = main(shlex.split(line)[1:])
        except SystemExit as exc:       # argparse usage errors
            code = exc.code
        assert code == 0, f"{line!r} exited {code}: {capsys.readouterr().err}"
