"""Every hccasim command line README shows in a fenced sh block must parse
with the CLI's own parser, so the README cannot name an option the CLI
lacks; every YAML block of its "Scenario files" section must build a
scenario, so it cannot show a key or a value that a file may not hold;
every python block of its "Library use" section must run, so it cannot
call an API the package lacks."""

import pathlib
import re
import shlex
import shutil

import pytest
import yaml

from hccasim import cli
from hccasim.config import scenario_from_dict

TESTS = pathlib.Path(__file__).parent
README = TESTS.parent / "README.md"


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


def section_blocks(section: str, language: str) -> list[str]:
    """The fenced blocks in language of README's section."""
    text = README.read_text().split(f"\n## {section}\n")[1].split("\n## ")[0]
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.M | re.S)


def scenario_blocks() -> list[str]:
    return section_blocks("Scenario files", "yaml")


def library_blocks() -> list[str]:
    return section_blocks("Library use", "python")


def test_readme_shows_its_scenario_blocks():
    assert len(scenario_blocks()) >= 4


@pytest.mark.parametrize("block", scenario_blocks(),
                         ids=lambda block: re.search(r"^(\w+):", block, re.M).group(1))
def test_readme_scenario_block_builds(block):
    scenario_from_dict(yaml.safe_load(block))


def test_readme_shows_its_library_blocks():
    assert len(library_blocks()) >= 3


@pytest.mark.parametrize("block", library_blocks(),
                         ids=lambda block: re.search(r"^from hccasim\S* import (\w+)", block,
                                                     re.M).group(1))
def test_readme_library_block_runs(block, tmp_path, monkeypatch):
    # The trace example reads movie.txt; the first block writes packets.csv.
    shutil.copy(TESTS / "data" / "trace_fragment_high.txt", tmp_path / "movie.txt")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
