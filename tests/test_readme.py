"""Every hccasim command line README shows in a fenced sh block must parse
with the CLI's own parser, so the README cannot name an option the CLI
lacks."""

import pathlib
import re
import shlex

import pytest

from hccasim import cli

README = pathlib.Path(__file__).parent.parent / "README.md"


def readme_commands() -> list[str]:
    """The hccasim lines of README's sh blocks, continuations joined."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("hccasim "):
                commands.append(line)
    return commands


def test_readme_shows_its_commands():
    assert len(readme_commands()) >= 5


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_parses(command):
    argv = shlex.split(command, comments=True)[1:]
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit as e:
        pytest.fail(f"{command!r} does not parse (exit {e.code})")
