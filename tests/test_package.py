import argparse
import ast
import dataclasses
import importlib
import inspect
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import textwrap

import hccasim
from hccasim import cli, config

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    assert [name for name in hccasim.__all__ if not hasattr(hccasim, name)] == []


def test_every_dataclass_has_its_own_docstring():
    # Without one, dataclasses builds __doc__ from inspect.signature when
    # the class is made, at every import of the package.
    missing = []
    for info in pkgutil.iter_modules(hccasim.__path__):
        module = importlib.import_module(f"hccasim.{info.name}")
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                node = ast.parse(textwrap.dedent(inspect.getsource(obj))).body[0]
                if ast.get_docstring(node) is None:
                    missing.append(f"{module.__name__}.{name}")
    assert missing == []


def test_readme_lists_every_scenario_key():
    section = README.read_text(encoding="utf-8").split("\n## Scenario files\n")[1]
    section = section.split("\n## ")[0]
    keys = ["preset", *config._SCENARIO_KEYS, *config._STATION_KEYS,
            *config._TRAFFIC_KEYS, *config._TSPEC_KEYS, *config._PHY_KEYS]
    assert [key for key in keys if not re.search(rf"\b{key}\b", section)] == []


def test_cli_import_loads_no_unneeded_modules(tmp_path):
    # sched counts MSDUs in integers, without Fraction; cli starts no process
    # pool, and its children send their results back as text, so not even a
    # command that forks imports pickle. The probe sees two usable CPUs and
    # counts its forks: one by simulate, one by a sweep on two shares.
    src = pathlib.Path(hccasim.__file__).resolve().parent.parent
    probe = textwrap.dedent("""
        import os, sys, hccasim.cli
        def loaded():
            return sorted(m for m in ('fractions', 'decimal', 'concurrent.futures',
                                      'pickle', 'multiprocessing') if m in sys.modules)
        print(loaded())
        os.sched_getaffinity = lambda pid: {0, 1}
        forks, fork = [], os.fork
        os.fork = lambda: forks.append(os.getpid()) or fork()
        for command in (["simulate"], ["sweep", "--stations", "1..2"]):
            assert hccasim.cli.main([*command, "--set", "preset=cbr-nominal", "--set",
                                     "duration_s=20.5", "--quiet", "--out", sys.argv[1]]) == 0
        print(len(forks), loaded())
    """)
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path}).stdout
    assert out == "[]\n2 []\n"


def test_the_package_imports_only_the_standard_library_and_yaml():
    # README promises PyYAML as the only runtime dependency. Every import,
    # function-level ones too, names a standard module, yaml or, relatively,
    # a module of this package.
    allowed = sys.stdlib_module_names | {"yaml"}
    package = pathlib.Path(hccasim.__file__).resolve().parent
    foreign = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in allowed]
    assert foreign == []


def test_only_the_cli_fork_helper_forks():
    # The library never forks: cli._fork alone decides whether to. Outside
    # it, no source line names fork (os.fork, "fork", from os import fork).
    package = pathlib.Path(hccasim.__file__).resolve().parent
    texts = {path.name: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    helper = inspect.getsource(cli._fork)
    assert re.search(r"\bfork\b", helper) and helper in texts["cli.py"]
    texts["cli.py"] = texts["cli.py"].replace(helper, "")
    assert sorted(name for name, text in texts.items() if re.search(r"\bfork\b", text)) == []


def test_every_cli_option_is_read():
    # An option no code reads promises what the command never does. Each
    # subcommand's options must be read, as args.<dest>, by its function or
    # by a cli function it calls (_load_config, _say, ...).
    parser = cli.build_parser()
    commands, = (a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction))
    unread = []
    for name, sub in commands.items():
        source = inspect.getsource(sub.get_default("func"))
        called = {getattr(cli, f, None) for f in re.findall(r"\b(\w+)\(", source)}
        source += "".join(inspect.getsource(f) for f in called
                          if inspect.isfunction(f) and f.__module__ == cli.__name__)
        unread += [(name, a.dest) for a in sub._actions
                   if a.dest != "help" and f"args.{a.dest}" not in source]
    assert unread == []


def test_every_library_definition_has_a_reader():
    # A function, class or method that no library code reads, that is not
    # exported and that neither the benchmark nor the acceptance gate reads
    # is kept for other tests only; such copies belong in the tests. A
    # reference is a name or an attribute in the code, never a string.
    # Dunder methods are Python's to call.
    root = pathlib.Path(hccasim.__file__).resolve().parent
    sources = sorted(root.glob("*.py"))

    def read_names(paths):
        nodes = [node for path in paths
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))]
        return ({node.id for node in nodes if isinstance(node, ast.Name)}
                | {node.attr for node in nodes if isinstance(node, ast.Attribute)})

    readers = [*sorted((README.parent / "perfbench").glob("*.py")),
               README.parent / "tests" / "test_acceptance.py"]
    read = read_names(sources) | set(hccasim.__all__) | read_names(readers)
    unread = []
    for path in sources:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                members = [node.name]
                if isinstance(node, ast.ClassDef):
                    members += [f"{node.name}.{m.name}" for m in node.body
                                if isinstance(m, ast.FunctionDef)
                                and not m.name.startswith("__")]
                unread += [f"{path.stem}.{name}" for name in members
                           if name.rpartition(".")[2] not in read]
    assert unread == []
