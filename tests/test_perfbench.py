"""The benchmark in perfbench/ reads the report through the public API; a
report change that breaks it should fail here, not only in a benchmark
run."""

import importlib.util
import pathlib

import pytest

from conftest import make_scenario
from hccasim import engine, metrics

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
