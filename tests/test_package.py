import pathlib
import re

import hccasim
from hccasim import config

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    assert [name for name in hccasim.__all__ if not hasattr(hccasim, name)] == []


def test_readme_lists_every_scenario_key():
    section = README.read_text(encoding="utf-8").split("\n## Scenario files\n")[1]
    section = section.split("\n## ")[0]
    keys = ["preset", *config._SCENARIO_KEYS, *config._STATION_KEYS,
            *config._TRAFFIC_KEYS, *config._TSPEC_KEYS, *config._PHY_KEYS]
    assert [key for key in keys if not re.search(rf"\b{key}\b", section)] == []
