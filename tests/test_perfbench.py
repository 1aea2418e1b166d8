"""The benchmark in perfbench/ reads the report through the public API; a
report change that breaks it should fail here, not only in a benchmark
run."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

from conftest import make_scenario
from hccasim import cli, engine, metrics

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def lossy_report():
    return engine.run(make_scenario(preset="vbr-high", scheduler="adaptive", stations=3,
                                    duration_s=24, seed=4, loss_p=0.1, record_polls=True))


def test_report_attrs_count_the_run(lossy_report):
    attrs = load("child").report_attrs(lossy_report)
    for name in ("generated", "data_frames", "lost_frames", "caps", "polls_adaptive"):
        assert attrs[name] > 0, name
    assert attrs["conservation_failures"] == 0
    assert attrs["generated"] == attrs["data_frames"] + attrs["queued_end"]


def test_summary_rederives_from_the_packet_log(lossy_report):
    summary = metrics.summarize([lossy_report])
    packets = lossy_report.packets_csv()
    run = load("run")
    assert run.rederive_summary(packets, summary, lossy_report.cfg) is None
    # One delivered frame more than the log holds is caught.
    header, row = summary.splitlines()
    fields = row.split(",")
    fields[7] = str(int(fields[7]) + 1)
    assert run.rederive_summary(packets, f"{header}\n{','.join(fields)}\n",
                                lossy_report.cfg) is not None


def test_polls_carry_grant_and_used_time(lossy_report):
    polls = lossy_report.polls
    assert polls and all(0 <= p.used_ns <= p.grant_ns for p in polls)


# The tracer targets that name nothing in the package: the sweep forks
# instead of starting a pool, and the engine computes grants and arrivals
# inline. A seventh would be a layer the benchmark stopped seeing.
DEAD_TARGETS = {"hccasim.cli.ProcessPoolExecutor", "hccasim.engine.adaptive_txop",
                "hccasim.engine.arrivals", "hccasim.engine.minimal_txop",
                "hccasim.engine.synth_trace", "hccasim.sched.data_tx_time"}


def test_the_traced_pass_sees_every_run_and_changes_no_output(tmp_path):
    # The benchmark's traced pass judges a run incorrect when its output
    # differs from the untraced one, or when the engine.run span saw no call
    # or a conservation failure: a simulate that runs its set-up without
    # engine.run writes the same files and fails here.
    config = tmp_path / "scenario.yaml"
    config.write_text("preset: vbr-high\nscheduler: adaptive\nstations: 3\nduration_s: 24\n"
                      "seed: 4\nloss_p: 0.1\n")
    stations, schedulers = "1..2", "reference,adaptive"
    commands = {"simulate": ["simulate"],
                "sweep": ["sweep", "--stations", stations, "--schedulers", schedulers]}
    child = [sys.executable, str(PERFBENCH / "child.py")]
    runs = {name: [*child, "trace-cli", "--spans", str(tmp_path / f"{name}.json"), "--",
                   *command, "--config", str(config), "--quiet",
                   "--out", str(tmp_path / f"{name}-traced")]
            for name, command in commands.items()}
    runs["cells"] = [*child, "trace-cells", "--spans", str(tmp_path / "cells.json"),
                     "--config", str(config), "--sweep", stations, schedulers]
    procs = {name: subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                    text=True) for name, argv in runs.items()}
    for name, command in commands.items():
        assert cli.main([*command, "--config", str(config), "--quiet",
                         "--out", str(tmp_path / name)]) == 0
    errors = {name: proc.communicate(timeout=60)[1] for name, proc in procs.items()}
    assert {name: proc.returncode for name, proc in procs.items()} == dict.fromkeys(runs, 0), \
        errors
    for name in commands:
        for out in sorted((tmp_path / name).iterdir()):
            assert (tmp_path / f"{name}-traced" / out.name).read_bytes() == out.read_bytes()
    dumps = {name: json.loads((tmp_path / f"{name}.json").read_text()) for name in runs}
    engine_runs = {name: dump["totals"]["spans"].get("engine.run", {})
                   for name, dump in dumps.items()}
    assert engine_runs["simulate"].get("calls") == 1
    assert engine_runs["cells"].get("calls") == 4
    assert [run.get("conservation_failures") for run in engine_runs.values()] == [0, None, 0]
    assert [set(dump["missing"]) - DEAD_TARGETS for dump in dumps.values()] == [set()] * 3
