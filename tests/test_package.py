import inspect
import os
import pathlib
import re
import subprocess
import sys

import hccasim
from hccasim import cli, config

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    assert [name for name in hccasim.__all__ if not hasattr(hccasim, name)] == []


def test_readme_lists_every_scenario_key():
    section = README.read_text(encoding="utf-8").split("\n## Scenario files\n")[1]
    section = section.split("\n## ")[0]
    keys = ["preset", *config._SCENARIO_KEYS, *config._STATION_KEYS,
            *config._TRAFFIC_KEYS, *config._TSPEC_KEYS, *config._PHY_KEYS]
    assert [key for key in keys if not re.search(rf"\b{key}\b", section)] == []


def test_cli_import_loads_no_unneeded_modules():
    # sched counts MSDUs in integers, without Fraction, and cli imports
    # pickle only when a sweep forks, and no process pool at all.
    src = pathlib.Path(hccasim.__file__).resolve().parent.parent
    probe = ("import sys, hccasim.cli; "
             "print(sorted(m for m in ('fractions', 'decimal', 'concurrent.futures', "
             "'pickle', 'multiprocessing') if m in sys.modules))")
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    assert out.strip() == "[]"


def test_only_the_cli_fork_helper_forks():
    # The library never forks: cli._fork alone decides whether to. Outside
    # it, no source line names fork (os.fork, "fork", from os import fork).
    package = pathlib.Path(hccasim.__file__).resolve().parent
    texts = {path.name: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    helper = inspect.getsource(cli._fork)
    assert re.search(r"\bfork\b", helper) and helper in texts["cli.py"]
    texts["cli.py"] = texts["cli.py"].replace(helper, "")
    assert sorted(name for name, text in texts.items() if re.search(r"\bfork\b", text)) == []
