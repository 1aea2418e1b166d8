import os
import time

import pytest
import yaml

from hccasim import engine
from hccasim.cli import main
from hccasim.config import load_scenario
from hccasim.metrics import SUMMARY_CSV_HEADER, summarize


def write_config(tmp_path, **kwargs):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(kwargs))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_simulate_writes_csvs(tmp_path, capsys):
    cfg = write_config(tmp_path, preset="vbr-high", duration_s=22, seed=3)
    out = tmp_path / "out"
    code, stdout, _ = run_cli(capsys, "simulate", "--config", cfg,
                              "--set", "scheduler=adaptive", "--out", str(out))
    assert code == 0
    summary = (out / "summary.csv").read_text()
    lines = summary.strip().splitlines()
    assert lines[0] == SUMMARY_CSV_HEADER
    assert len(lines) == 2
    assert lines[1].startswith("adaptive,1,vbr-high,")
    packets = (out / "packets.csv").read_text()
    assert packets.startswith("flow,seq,gen_ts_ns,recv_ts_ns,size_bytes,lost\n")
    assert len(packets.strip().splitlines()) > 1
    assert "adaptive,1,vbr-high," in stdout


def test_simulate_validation_error_names_field(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "simulate", "--set", "stations=0",
                              "--out", str(tmp_path / "o"))
    assert code == 2
    assert "stations" in stderr
    assert not (tmp_path / "o").exists()


def test_unknown_key_is_an_error(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "simulate", "--set", "statoins=3",
                              "--out", str(tmp_path / "o"))
    assert code == 2
    assert "statoins" in stderr


def test_missing_trace_file_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, traffic={"kind": "trace", "path": "no-such.txt"},
                       duration_s=21)
    code, _, stderr = run_cli(capsys, "simulate", "--config", cfg,
                              "--out", str(tmp_path / "o"))
    assert code == 2
    assert "no-such.txt" in stderr


def test_simulate_admission_abort_is_reported(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "simulate", "--set", "preset=vbr-high",
                              "--set", "stations=6", "--set", "admission=on",
                              "--set", "duration_s=21", "--out", str(tmp_path / "o"))
    assert code == 2
    assert "rejected" in stderr


def test_stations_above_range_warns(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "simulate", "--set", "preset=vbr-high",
                              "--set", "stations=13", "--set", "duration_s=20.5",
                              "--out", str(tmp_path / "o"))
    assert code == 0
    assert "stations=13" in stderr


def test_trace_stats_fragment(fragment_path, capsys):
    code, stdout, _ = run_cli(capsys, "trace-stats", str(fragment_path))
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == ("trace,mean_size_bytes,peak_size_bytes,"
                        "mean_bit_rate_bps,peak_bit_rate_bps,peak_to_mean")
    assert lines[1] == f"{fragment_path},6740.33,8124,1348066.7,1624800.0,1.2053"


def test_trace_stats_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 I 40 900\n2 Q 80 100\n")
    code, _, stderr = run_cli(capsys, "trace-stats", str(bad))
    assert code == 2
    assert "line 2" in stderr


def test_validate_ok_and_bad(tmp_path, capsys):
    cfg = write_config(tmp_path, preset="cbr-nominal", stations=4)
    code, stdout, _ = run_cli(capsys, "validate", "--config", cfg)
    assert code == 0
    assert "config ok" in stdout
    code, _, stderr = run_cli(capsys, "validate", "--config", cfg,
                              "--set", "loss_p=1.5")
    assert code == 2
    assert "loss_p" in stderr


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("override, field", [
    ("traffic.i_size=-5", "traffic.i_size"),
    ("traffic.b_size=0", "traffic.b_size"),
    ("traffic.jitter=1.0", "traffic.jitter"),
    ("traffic.frame_interval_ms=0", "traffic.frame_interval_ms"),
    ("duration_s=.inf", "duration_s"),
    ("seed=1.9", "seed"),
    ("stations=2.7", "stations"),
])
def test_bad_values_exit_2_naming_the_field(tmp_path, capsys, command, override, field):
    code, stdout, stderr = run_cli(capsys, command, "--set", "preset=vbr-high",
                                   "--set", "duration_s=21", "--set", override,
                                   "--out", str(tmp_path / "o"))
    assert code == 2
    assert f"error: {field}:" in stderr
    assert "config ok" not in stdout
    assert not (tmp_path / "o").exists()


def test_quoted_boolean_in_config_file_is_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, preset="vbr-high", qs_exact="false")
    code, _, stderr = run_cli(capsys, "validate", "--config", cfg)
    assert code == 2
    assert "qs_exact" in stderr


def test_sweep_rows_and_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path, preset="vbr-high", duration_s=22, seed=9)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    for out in (out1, out2):
        code, _, _ = run_cli(capsys, "sweep", "--config", cfg, "--stations", "1..3",
                             "--schedulers", "reference,adaptive", "--out", str(out))
        assert code == 0
    a = (out1 / "summary.csv").read_bytes()
    b = (out2 / "summary.csv").read_bytes()
    assert a == b
    lines = a.decode().strip().splitlines()
    assert len(lines) == 7  # header + 3 counts x 2 schedulers


def test_sweep_single_count_and_bad_range(tmp_path, capsys):
    cfg = write_config(tmp_path, preset="vbr-high", duration_s=21, seed=9)
    code, _, _ = run_cli(capsys, "sweep", "--config", cfg, "--stations", "2",
                         "--schedulers", "adaptive", "--out", str(tmp_path / "o"))
    assert code == 0
    lines = (tmp_path / "o" / "summary.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    code, _, stderr = run_cli(capsys, "sweep", "--config", cfg, "--stations", "3..1",
                              "--out", str(tmp_path / "o2"))
    assert code == 2
    code, _, stderr = run_cli(capsys, "sweep", "--config", cfg, "--stations", "1..2",
                              "--schedulers", "bogus", "--out", str(tmp_path / "o3"))
    assert code == 2
    assert "bogus" in stderr


def test_sweep_seeds_stable_per_cell(tmp_path, capsys):
    # the (adaptive, 2) row must not change when the sweep range grows
    cfg = write_config(tmp_path, preset="vbr-high", duration_s=22, seed=9)
    runs = {}
    for name, rng in (("narrow", "2"), ("wide", "1..3")):
        out = tmp_path / name
        run_cli(capsys, "sweep", "--config", cfg, "--stations", rng,
                "--schedulers", "adaptive", "--out", str(out))
        lines = (out / "summary.csv").read_text().strip().splitlines()
        runs[name] = [l for l in lines if l.startswith("adaptive,2,")]
    assert runs["narrow"] == runs["wide"]


def test_unwritable_output_fails_nonzero(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code, _, stderr = run_cli(capsys, "simulate", "--set", "preset=cbr-nominal",
                              "--set", "duration_s=20.5",
                              "--out", str(blocker / "sub"))
    assert code != 0
    assert "out" in stderr or "blocker" in stderr


def test_quiet_suppresses_status(tmp_path, capsys):
    cfg = write_config(tmp_path, preset="cbr-nominal", duration_s=20.5)
    code, stdout, _ = run_cli(capsys, "simulate", "--config", cfg, "--quiet",
                              "--out", str(tmp_path / "o"))
    assert code == 0
    assert stdout == ""


def test_frames_above_max_msdu_are_reported_once(tmp_path, capsys):
    # Reference grants cover one TSPEC maximum MSDU (16 745 B); I-frames of
    # up to 25 000 B never fit one, and the run used to say nothing.
    cfg = write_config(tmp_path, preset="vbr-high", scheduler="reference",
                       duration_s=30, seed=3, traffic={"i_size": 20000})
    out = tmp_path / "o"
    code, _, stderr = run_cli(capsys, "simulate", "--config", cfg, "--out", str(out))
    assert code == 0
    warnings = [l for l in stderr.splitlines() if "tspec.max_msdu_bytes" in l]
    assert len(warnings) == 1
    assert warnings[0].startswith("warning: flow 0: largest frame is ")
    assert "16745 B" in warnings[0]
    # The note changes no output.
    report = engine.run(load_scenario(cfg))
    assert (out / "packets.csv").read_text() == report.packets_csv()
    assert (out / "summary.csv").read_text() == summarize([report])

    code, _, stderr = run_cli(capsys, "sweep", "--config", cfg, "--stations", "1..2",
                              "--out", str(tmp_path / "s"))
    assert code == 0
    warnings = [l for l in stderr.splitlines() if "tspec.max_msdu_bytes" in l]
    assert [w.split(":")[1] for w in warnings] == [" flow 0", " flow 1"]


def test_frames_within_max_msdu_are_not_reported(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "simulate", "--set", "preset=vbr-high",
                              "--set", "duration_s=22", "--out", str(tmp_path / "o"))
    assert code == 0
    assert "max_msdu" not in stderr


@pytest.mark.parametrize("command", ["validate", "simulate", "sweep"])
def test_oversized_run_is_refused_before_it_starts(tmp_path, capsys, command):
    # 1 ns frames: 8 stations x 600 s would be 4.6e12 frames.
    t0 = time.perf_counter()
    code, _, stderr = run_cli(capsys, command, "--set", "preset=vbr-high",
                              "--set", "stations=8", "--set", "duration_s=600",
                              "--set", "traffic.frame_interval_ms=1e-6",
                              "--out", str(tmp_path / "o"))
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert "error: traffic.frame_interval_ms: run would generate" in stderr
    assert not (tmp_path / "o").exists()


def test_sweep_cell_above_run_size_limit_is_refused(tmp_path, capsys):
    # One station of 1e6 frames passes validation; the 11- and 12-station
    # cells (1.1e7 and 1.2e7 frames) are refused by the engine before it
    # builds anything, in pool workers where there is more than one CPU.
    cfg = write_config(tmp_path, preset="vbr-high", duration_s=30,
                       traffic={"frame_interval_ms": 0.01})
    t0 = time.perf_counter()
    code, _, stderr = run_cli(capsys, "sweep", "--config", cfg, "--stations", "11..12",
                              "--schedulers", "adaptive", "--out", str(tmp_path / "o"))
    assert time.perf_counter() - t0 < 5.0
    assert code == 2
    assert "error: traffic.frame_interval_ms: run would generate" in stderr
