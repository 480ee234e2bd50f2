"""The README's examples run: its library quickstart executes, and every
``surfrec`` command line it shows parses with the CLI's own parser."""

import re
import shlex
from pathlib import Path

import pytest

from surfrec import bump_surface, default_bump_spec
from surfrec.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.MULTILINE | re.DOTALL)


def command_lines():
    """Each ``surfrec`` command of the sh blocks, continuation lines joined."""
    lines = []
    for block in fenced_blocks("sh"):
        lines += [line for line in block.replace("\\\n", " ").splitlines()
                  if line.startswith("surfrec ")]
    return lines


def test_quickstart_runs():
    (quickstart,) = fenced_blocks("python")
    _, g = bump_surface(default_bump_spec(40, 48))
    namespace = {"zx": g.zx, "zy": g.zy}
    exec(compile(quickstart, "README.md quickstart", "exec"), namespace)
    assert namespace["z"].heights.shape == (40, 48)
    assert namespace["lam"] > 0


def test_readme_shows_every_subcommand():
    shown = {shlex.split(line)[1] for line in command_lines()}
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert shown == set(sub.choices)


@pytest.mark.parametrize("line", command_lines())
def test_command_line_parses(line):
    # parsing opens no file: the grid and output paths stay strings
    argv = shlex.split(line, comments=True)[1:]
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]
