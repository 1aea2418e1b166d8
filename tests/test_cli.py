import itertools
import os
import pathlib
import subprocess
import sys
import time
from array import array

import pytest
import yaml

from hccasim import cli, config, engine, metrics
from hccasim.cli import main
from hccasim.config import ConfigError, ScenarioConfig, load_scenario, scenario_from_dict
from hccasim.metrics import SUMMARY_CSV_HEADER, summarize


def write_config(tmp_path, **kwargs):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(kwargs))
    return str(path)


def use_cpus(monkeypatch, n):
    """Let the sweep see n usable CPUs, whatever this host allows."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def fork_fails():
    """An os.fork that cannot start a child, as when out of processes."""
    raise BlockingIOError(11, "Resource temporarily unavailable")


def out_argv(command, path):
    """--out path for a command that writes files; validate takes no --out."""
    return [] if command == "validate" else ["--out", str(path)]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# The CLI confined to one CPU, so that it forks no worker and a timeout that
# kills it ends the whole command.
ONE_CPU_MAIN = """
import os, sys
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from hccasim.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_cli_process(*argv, timeout=5.0):
    """The CLI run with argv in a child process, for a command that could
    block or run on: a completed process, or subprocess.TimeoutExpired once
    the child is killed after timeout seconds."""
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", ONE_CPU_MAIN, *argv], capture_output=True,
                          text=True, timeout=timeout, env={**os.environ, "PYTHONPATH": path})


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


@pytest.mark.parametrize("override, error", [
    ("overhead_mode=lumped", "overhead_mode: unknown configuration key"),
    ("throughput_window=full", "throughput_window: unknown configuration key"),
    ("traffic.rotate_gop=false", "traffic.rotate_gop: unknown traffic key"),
])
def test_fixed_model_choices_have_no_key(capsys, override, error):
    # Per-MSDU TXOP overhead, the active throughput window and per-station
    # GoP rotation are fixed; a scenario naming their old keys is refused.
    code, stdout, stderr = run_cli(capsys, "validate", "--set", "preset=vbr-high",
                                   "--set", override)
    assert (code, stdout, stderr) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_trace_path_under_synthetic_traffic_exits_2(tmp_path, capsys, command):
    code, stdout, stderr = run_cli(capsys, command, "--set", "preset=vbr-high",
                                   "--set", "traffic.path=/nonexistent/movie.txt",
                                   *out_argv(command, tmp_path / "o"))
    assert (code, stdout) == (2, "")
    assert stderr == "error: traffic.path: is read only when kind is 'trace'\n"
    assert not (tmp_path / "o").exists()


def test_missing_trace_file_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, traffic={"kind": "trace", "path": "no-such.txt"},
                       duration_s=21)
    code, _, stderr = run_cli(capsys, "simulate", "--config", cfg,
                              "--out", str(tmp_path / "o"))
    assert code == 2
    assert "no-such.txt" in stderr


@pytest.mark.parametrize("command", ["validate", "simulate", "sweep"])
def test_simulate_admission_abort_is_reported(tmp_path, capsys, monkeypatch, command):
    # validate sets the scenario up as simulate does, admission control
    # included; a sweep sets its largest cell up the same way, before it
    # forks anything.
    use_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    stations = ["--stations", "1..6"] if command == "sweep" else ["--set", "stations=6"]
    code, stdout, stderr = run_cli(capsys, command, "--set", "preset=vbr-high",
                                   *stations, "--set", "admission=on",
                                   "--set", "duration_s=21",
                                   *out_argv(command, tmp_path / "o"))
    assert (code, stdout) == (2, "")
    assert stderr == ("error: admission control rejected flow 3 (utilization 1.3210 "
                      "exceeds 1.0000 (sum TXOP 52841456 ns over SI 40000000 ns)); "
                      "set on_reject: run or admission: off to simulate anyway\n")
    assert forks == []
    assert not (tmp_path / "o").exists()


def test_sweep_reports_admission_rejections_once(tmp_path, capsys):
    argv = ["--set", "preset=vbr-high", "--set", "admission=on", "--set", "on_reject=run",
            "--set", "duration_s=21"]
    code, _, simulated = run_cli(capsys, "simulate", *argv, "--set", "stations=10",
                                 "--out", str(tmp_path / "o"))
    assert code == 0
    code, _, swept = run_cli(capsys, "sweep", *argv, "--stations", "9..10",
                             "--out", str(tmp_path / "s"))
    assert code == 0
    # Both schedulers and both counts reject the same flows 3..9.
    rejected = [l for l in swept.splitlines() if " rejected: " in l]
    assert [l.split(":")[1] for l in rejected] == [f" flow {i} rejected" for i in range(3, 10)]
    assert rejected == [l for l in simulated.splitlines() if " rejected: " in l]
    code, _, validated = run_cli(capsys, "validate", *argv, "--set", "stations=10")
    assert code == 0
    assert [l for l in validated.splitlines() if " rejected: " in l] == rejected


@pytest.mark.parametrize("command, argv, stations", [
    ("simulate", ["--set", "stations=13"], 13),
    ("validate", ["--set", "stations=13"], 13),
    ("sweep", ["--stations", "12..14", "--schedulers", "adaptive,reference"], 14)])
def test_stations_above_range_warns(tmp_path, capsys, command, argv, stations):
    # The sweep warns as validate does for its largest cell, and only once.
    code, _, stderr = run_cli(capsys, command, "--set", "preset=vbr-high",
                              "--set", "duration_s=20.5", *argv,
                              *out_argv(command, tmp_path / "o"), "--quiet")
    assert code == 0
    assert stderr == (f"warning: stations={stations} is outside the validated 1..12 "
                      f"preset range\n")


def test_sweep_refuses_a_per_station_list(tmp_path, capsys):
    cfg = write_config(tmp_path, stations=[{}, {}], duration_s=21)
    code, _, stderr = run_cli(capsys, "sweep", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 2
    assert stderr == ("error: stations: sweep requires a station count, "
                      "not a per-station list\n")
    assert not (tmp_path / "o").exists()


def test_validate_bounds_the_notes_it_prints(capsys):
    # 40 000 stations that never start: one note each, of which 36 are shown.
    code, stdout, stderr = run_cli(capsys, "validate", "--set", "stations=40000",
                                   "--set", "duration_s=10")
    lines = stderr.splitlines()
    assert (code, stdout) == (0, "config ok\n")
    assert len(lines) <= 38
    assert lines[0] == "warning: stations=40000 is outside the validated 1..12 preset range"
    assert [l.split(":")[1] for l in lines[1:-1]] == [f" flow {i}" for i in range(36)]
    assert lines[-1] == "warning: 39964 more notes not shown"


def test_warn_notes_counts_the_notes_past_the_limit(capsys):
    cli._warn_notes([f"n{i}" for i in range(40)])
    lines = capsys.readouterr().err.splitlines()
    assert lines == [*(f"warning: n{i}" for i in range(36)),
                     "warning: 4 more notes not shown"]
    cli._warn_notes([f"n{i}" for i in range(cli.NOTES_SHOWN)])
    assert len(capsys.readouterr().err.splitlines()) == cli.NOTES_SHOWN


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
    ("traffic.stagger_ms=1e303 stations=2", "traffic.stagger_ms"),
])
def test_bad_values_exit_2_naming_the_field(tmp_path, capsys, command, override, field):
    sets = [arg for item in override.split() for arg in ("--set", item)]
    code, stdout, stderr = run_cli(capsys, command, "--set", "preset=vbr-high",
                                   "--set", "duration_s=21", *sets,
                                   *out_argv(command, tmp_path / "o"))
    assert code == 2
    assert f"error: {field}:" in stderr
    assert "config ok" not in stdout
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("station, error", [
    ({"traffic": {"i_size": 100000000000000000000}},
     "stations[1].traffic.i_size: must be below 2**62"),
    ({"traffic": {"b_size": 2**62}}, "stations[1].traffic.b_size: must be below 2**62"),
    ({"traffic": {"kind": "trace", "path": "big-size.txt"}},
     f"stations[1].traffic.path: line 2: frame size must be below 2**63, got {2**63}"),
    ({"traffic": {"kind": "trace", "path": "big-seq.txt"}},
     f"stations[1].traffic.path: line 2: frame sequence must be below 2**63, got {2**63}"),
], ids=["i_size", "b_size", "trace-size", "trace-seq"])
def test_values_a_64_bit_column_cannot_hold_exit_2(tmp_path, capsys, command, station,
                                                   error):
    (tmp_path / "big-size.txt").write_text(f"0 I 0 900\n1 P 40 {2**63}\n")
    (tmp_path / "big-seq.txt").write_text(f"0 I 0 900\n{2**63} P 40 800\n")
    if "path" in station["traffic"]:
        station = {"traffic": dict(station["traffic"],
                                   path=str(tmp_path / station["traffic"]["path"]))}
    cfg = write_config(tmp_path, duration_s=21, stations=[{}, station])
    code, stdout, stderr = run_cli(capsys, command, "--config", cfg,
                                   *out_argv(command, tmp_path / "o"))
    assert (code, stderr) == (2, f"error: {error}\n")
    assert "config ok" not in stdout
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_top_level_values_a_64_bit_column_cannot_hold_exit_2(tmp_path, capsys, command):
    for override, error in [("traffic.i_size=100000000000000000000",
                             "traffic.i_size: must be below 2**62"),
                            ("duration_s=1e13",
                             "duration_s: must be below 2**63 ns (about 292 years)")]:
        code, stdout, stderr = run_cli(capsys, command, "--set", "duration_s=21",
                                       "--set", override, *out_argv(command, tmp_path / "o"))
        assert (code, stderr) == (2, f"error: {error}\n")
        assert "config ok" not in stdout
        assert not (tmp_path / "o").exists()


def test_validate_takes_no_out(tmp_path, capsys, monkeypatch):
    # validate writes nothing, so it has no output directory to name.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as e:
        main(["validate", "--set", "stations=6", "--out", "x"])
    assert e.value.code == 2
    assert "unrecognized arguments: --out x" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


def test_trace_stats_has_no_quiet_flag(fragment_path, capsys):
    with pytest.raises(SystemExit) as e:
        main(["trace-stats", str(fragment_path), "--quiet"])
    assert e.value.code == 2
    assert "--quiet" in capsys.readouterr().err


def test_simulate_warns_about_streams_that_never_start(tmp_path, capsys):
    # Traffic starts at 20 s: a 10 s run used to end with an empty row and
    # no word why.
    out = tmp_path / "o"
    code, _, stderr = run_cli(capsys, "simulate", "--set", "duration_s=10", "--out", str(out))
    assert code == 0
    assert stderr == ("warning: flow 0: traffic starts at 20 s, not before the end of "
                      "the run at 10 s; it sends nothing\n")
    assert (out / "summary.csv").read_text().splitlines()[1] == \
        "reference,1,custom,,,,0.0,0,0,0"
    # Only the stations that start too late are named; the note changes no output.
    argv = ["--set", "stations=3", "--set", "duration_s=24", "--set", "traffic.stagger_ms=3000"]
    code, _, stderr = run_cli(capsys, "simulate", *argv, "--out", str(out))
    assert code == 0
    assert [l.split(":")[1] for l in stderr.splitlines()] == [" flow 2"]
    assert "starts at 26 s" in stderr
    report = engine.run(load_scenario(write_config(tmp_path, stations=3, duration_s=24,
                                                   traffic={"stagger_ms": 3000})))
    assert (out / "packets.csv").read_text() == report.packets_csv()
    assert (out / "summary.csv").read_text() == summarize([report])


def test_validate_warns_about_streams_that_never_start(tmp_path, capsys):
    # validate says what simulate would warn about, and still passes the config.
    code, stdout, stderr = run_cli(capsys, "validate", "--set", "duration_s=10")
    assert code == 0
    assert stdout == "config ok\n"
    assert stderr == ("warning: flow 0: traffic starts at 20 s, not before the end of "
                      "the run at 10 s; it sends nothing\n")
    code, _, stderr = run_cli(capsys, "validate", "--set", "preset=vbr-high",
                              "--set", "traffic.i_size=20000", "--set", "duration_s=30")
    assert code == 0
    assert stderr.startswith("warning: flow 0: largest frame is ")
    code, _, stderr = run_cli(capsys, "validate", "--set", "duration_s=22")
    assert code == 0 and stderr == ""


def test_sweep_warns_once_about_streams_that_never_start(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "sweep", "--set", "duration_s=10", "--stations", "1..2",
                              "--out", str(tmp_path / "s"))
    assert code == 0
    assert [l.split(":")[1] for l in stderr.splitlines()] == [" flow 0", " flow 1"]


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
                              *out_argv(command, tmp_path / "o"))
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert "error: traffic.frame_interval_ms: run would generate" in stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, counted", [
    (("validate", "--set", "stations=99999999999999999999"), "generate"),
    (("validate", "--set", "stations=10000000", "--set", "duration_s=20.1"), "generate"),
    # Traffic never starts: no frame, but 250 CAPs of two million polls.
    (("validate", "--set", "stations=2000000", "--set", "duration_s=10"), "poll"),
    (("sweep", "--stations", "1..100000"), "poll"),
    # No CAP: nothing polled, but every station would be set up.
    (("simulate", "--set", "stations=100000000", "--set", "duration_s=0"), "set up"),
])
def test_huge_station_counts_are_refused_at_once(tmp_path, capsys, argv, counted):
    t0 = time.perf_counter()
    code, _, stderr = run_cli(capsys, *argv, *out_argv(argv[0], tmp_path / "o"))
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert stderr.startswith(f"error: stations: run would {counted} ")
    assert stderr.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_a_sweep_too_large_to_finish_is_refused_at_once(tmp_path):
    # 200 000 cells of 25 CAPs, each inside the run limits: 2.5e11 polls.
    done = run_cli_process("sweep", "--stations", "1..100000", "--set", "duration_s=1",
                           "--out", str(tmp_path / "o"))
    assert done.returncode == 2
    assert done.stderr == ("error: stations: run would poll stations 250002500000 times "
                           "over the 200000 cells of the sweep, about 25 CAPs each, above "
                           f"the limit of {config.MAX_SWEEP_POLLS} polls\n")
    assert not (tmp_path / "o").exists()


def test_a_sweep_of_cells_without_a_cap_is_refused_at_once(tmp_path):
    # 200 000 cells of a run of no time: no CAP, yet every cell sets up,
    # logs and summarizes each of its stations.
    done = run_cli_process("sweep", "--stations", "1..100000", "--set", "duration_s=0",
                           "--out", str(tmp_path / "o"))
    assert done.returncode == 2
    assert done.stderr == ("error: stations: run would set up stations 10000100000 times "
                           "over the 200000 cells of the sweep, which make no CAP and count "
                           "a set-up as a poll, above the limit of "
                           f"{config.MAX_SWEEP_POLLS} polls\n")
    assert not (tmp_path / "o").exists()


def test_sweep_cell_above_run_size_limit_is_refused(tmp_path, capsys):
    # One station of 1e6 frames passes validation; the 11- and 12-station
    # cells (1.1e7 and 1.2e7 frames) are refused when sweep_cells builds
    # their configs, before anything is set up or forked.
    cfg = write_config(tmp_path, preset="vbr-high", duration_s=30,
                       traffic={"frame_interval_ms": 0.01})
    t0 = time.perf_counter()
    code, _, stderr = run_cli(capsys, "sweep", "--config", cfg, "--stations", "11..12",
                              "--schedulers", "adaptive", "--out", str(tmp_path / "o"))
    assert time.perf_counter() - t0 < 5.0
    assert code == 2
    assert "error: traffic.frame_interval_ms: run would generate" in stderr


@pytest.mark.parametrize("trace_text,message", [
    (None, "error: stations[0].traffic.path: [Errno 2] No such file or directory"),
    ("0 I 0 900\n1 Q 40 800\n",
     "error: stations[0].traffic.path: line 2: unknown frame type 'Q'"),
])
def test_pooled_sweep_reports_trace_errors(tmp_path, capsys, monkeypatch,
                                           trace_text, message):
    # Two CPUs would give one forked child beside this process; the bad
    # file fails the largest cell's set-up here first, as one line, and
    # nothing is forked.
    use_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    path = tmp_path / "trace.txt"
    if trace_text is not None:
        path.write_text(trace_text)
    cfg = write_config(tmp_path, duration_s=22,
                       traffic={"kind": "trace", "path": str(path)})
    code, _, stderr = run_cli(capsys, "sweep", "--config", cfg, "--stations", "1..2",
                              "--out", str(tmp_path / "o"))
    assert code == 2
    assert stderr.startswith(message)
    assert "Traceback" not in stderr
    assert forks == []
    assert not (tmp_path / "o").exists()


def test_validate_parses_a_shared_trace_once(tmp_path, capsys, monkeypatch, fragment_path):
    parsed = []
    real_load = engine.load_trace
    monkeypatch.setattr(engine, "load_trace", lambda *args: parsed.append(args) or
                        real_load(*args))
    cfg = write_config(tmp_path, stations=[
        {"traffic": {"kind": "trace", "path": str(fragment_path)}}] * 12)
    code, stdout, _ = run_cli(capsys, "validate", "--config", cfg)
    assert code == 0 and stdout == "config ok\n"
    assert len(parsed) == 1


@pytest.mark.parametrize("cpus", [1, 2])
def test_trace_sweep_parses_its_file_once(tmp_path, capsys, monkeypatch, cpus):
    # A 1..12 x 2 sweep over one trace file: the largest cell's set-up
    # parses it, and every cell, in this process or a forked child, reuses
    # those columns. The next command reads the rewritten file again.
    path = tmp_path / "trace.txt"
    path.write_text("".join(f"{k} I {40 * k} {900 + k}\n" for k in range(60)))
    parent, parsed, real_load = os.getpid(), [], engine.load_trace

    def load_trace(*args):
        if os.getpid() != parent:
            os._exit(3)
        parsed.append(args)
        return real_load(*args)

    monkeypatch.setattr(engine, "load_trace", load_trace)
    use_cpus(monkeypatch, cpus)
    cfg = write_config(tmp_path, duration_s=22, traffic={"kind": "trace", "path": str(path)})
    code, _, _ = run_cli(capsys, "sweep", "--config", cfg, "--out", str(tmp_path / "a"))
    assert code == 0 and parsed == [(str(path),)]
    path.write_text("".join(f"{k} I {40 * k} {1900 + k}\n" for k in range(60)))
    code, _, _ = run_cli(capsys, "sweep", "--config", cfg, "--out", str(tmp_path / "b"))
    assert code == 0 and len(parsed) == 2
    a, b = ((tmp_path / d / "summary.csv").read_text().splitlines() for d in "ab")
    assert len(a) == len(b) == 25 and a[0] == b[0] and a[1:] != b[1:]


def test_simulate_names_the_station_of_a_malformed_trace(tmp_path, capsys):
    # Station 1 replays the bad file: simulate must say what validate says.
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_text("0 I 0 900\n1 P 40 800\n")
    bad.write_text("0 I 0 900\n1 Q 40 800\n")
    cfg = write_config(tmp_path, duration_s=22, stations=[
        {"traffic": {"kind": "trace", "path": str(path)}} for path in (good, bad)])
    message = "error: stations[1].traffic.path: line 2: unknown frame type 'Q'\n"
    for command in ("validate", "simulate"):
        code, _, stderr = run_cli(capsys, command, "--config", cfg,
                                  *out_argv(command, tmp_path / "o"))
        assert code == 2
        assert stderr == message
    assert not (tmp_path / "o").exists()


def test_sweep_reaps_every_child_and_reports_the_first_failure(tmp_path, capsys,
                                                              monkeypatch):
    # 1..3 stations on 3 CPUs deal one cell per share: the 3-station cell
    # runs in this process, the 2- and 1-station cells in two children.
    use_cpus(monkeypatch, 3)
    argv = ("sweep", "--set", "preset=cbr-nominal", "--set", "duration_s=20.5",
            "--stations", "1..3", "--schedulers", "adaptive")
    parent, real_run_cell = os.getpid(), cli._run_cell

    def sweep_failing(name, failures):
        """Sweep with each cell named in failures raising a ConfigError
        ("raise") or, in a child, leaving with that exit status."""
        ran_here = []

        def run_cell(cfg, stations):
            if os.getpid() == parent:
                ran_here.append(cfg.stations)
            fail = failures.get(cfg.stations)
            if fail == "raise":
                raise ConfigError(f"cell{cfg.stations}", "failed")
            if fail and os.getpid() != parent:
                os._exit(fail)
            return real_run_cell(cfg, stations)

        monkeypatch.setattr(cli, "_run_cell", run_cell)
        result = run_cli(capsys, *argv, "--out", str(tmp_path / name))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return result, ran_here

    (code, _, stderr), ran_here = sweep_failing("clean", {})
    assert (code, stderr, ran_here) == (0, "", [3])
    assert len((tmp_path / "clean" / "summary.csv").read_text().splitlines()) == 4

    # This process's own error wins (exit 2, as for invalid input); else the
    # first child that died, in share order, is named by its status (exit 1,
    # as for simulate's summary worker). A child that raises prints its
    # traceback and leaves with status 1. No failed share is run again here.
    died = "sweep worker exited with status {} before sending its results"
    for failures, exit_code, error in [({3: "raise", 2: 3}, 2, "cell3: failed"),
                                       ({2: 3, 1: 4}, 1, died.format(3)),
                                       ({1: 4}, 1, died.format(4)),
                                       ({2: "raise"}, 1, died.format(1))]:
        (code, _, stderr), ran_here = sweep_failing("o", failures)
        assert (code, stderr, ran_here) == (exit_code, f"error: {error}\n", [3])
    assert not (tmp_path / "o").exists()


def count_forks(monkeypatch, works=True):
    """Record in the returned list the pid of every os.fork call; each
    call forks, or fails as fork_fails does when works is false."""
    calls, real_fork = [], os.fork

    def fork():
        calls.append(os.getpid())
        return real_fork() if works else fork_fails()

    monkeypatch.setattr(os, "fork", fork)
    return calls


@pytest.mark.parametrize("cpus, forks", [(1, True), (2, True), (2, False)])
def test_simulate_matches_in_process_run(tmp_path, capsys, monkeypatch, cpus, forks):
    # A lossy run, so packets.csv holds lost rows; one usable CPU forks no
    # writer, and a failed fork writes packets.csv in this process.
    cfg = write_config(tmp_path, preset="vbr-high", stations=3, duration_s=22, seed=5,
                       loss_p=0.1)
    report = engine.run(load_scenario(cfg))
    use_cpus(monkeypatch, cpus)
    calls = count_forks(monkeypatch, forks)
    out = tmp_path / "o"
    code, _, stderr = run_cli(capsys, "simulate", "--config", cfg, "--out", str(out),
                              "--quiet")
    assert (code, stderr) == (0, "")
    assert (out / "packets.csv").read_bytes() == report.packets_csv().encode()
    assert (out / "summary.csv").read_bytes() == summarize([report]).encode()
    assert calls == ([] if cpus == 1 else [os.getpid()])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("forks", [True, False])
def test_simulate_reports_an_unwritable_packet_log_once(tmp_path, capsys, monkeypatch,
                                                        forks):
    use_cpus(monkeypatch, 2)
    calls = count_forks(monkeypatch, forks)
    out = tmp_path / "o"
    (out / "packets.csv").mkdir(parents=True)
    code, stdout, stderr = run_cli(capsys, "simulate", "--set", "preset=cbr-nominal",
                                   "--set", "duration_s=20.5", "--out", str(out))
    assert (code, stdout) == (1, "")
    assert stderr == f"error: out: [Errno 21] Is a directory: '{out / 'packets.csv'}'\n"
    assert sorted(p.name for p in out.iterdir()) == ["packets.csv"]
    assert len(calls) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_unwritable_summary_fails_after_the_packet_log(tmp_path, capsys, command):
    out = tmp_path / "o"
    (out / "summary.csv").mkdir(parents=True)
    argv = ["--stations", "1..2"] if command == "sweep" else []
    code, stdout, stderr = run_cli(capsys, command, "--set", "preset=cbr-nominal",
                                   "--set", "duration_s=20.5", *argv, "--out", str(out))
    assert (code, stdout) == (1, "")
    assert stderr == f"error: out: [Errno 21] Is a directory: '{out / 'summary.csv'}'\n"
    # simulate writes packets.csv first; sweep writes none.
    assert sorted(p.name for p in out.iterdir()) == (
        ["packets.csv", "summary.csv"] if command == "simulate" else ["summary.csv"])


def test_fork_declines_without_starting_a_child(monkeypatch):
    calls = count_forks(monkeypatch, works=False)
    use_cpus(monkeypatch, 1)
    assert cli._fork(os.getpid) is None and calls == []
    use_cpus(monkeypatch, 2)
    assert cli._fork(os.getpid) is None and calls == [os.getpid()]
    monkeypatch.delattr(os, "fork")
    assert cli._fork(os.getpid) is None and len(calls) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def summarize_failing_in_the_child(monkeypatch, fail):
    """Let simulate's summary child call fail() in place of summarizing;
    this process summarizes as before."""
    parent, real_summarize = os.getpid(), metrics.summarize

    def summarize(reports):
        if os.getpid() != parent:
            fail()
        return real_summarize(reports)

    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(metrics, "summarize", summarize)


def test_simulate_names_a_summary_worker_that_died(tmp_path, capsys, monkeypatch):
    summarize_failing_in_the_child(monkeypatch, lambda: os._exit(3))
    out = tmp_path / "o"
    code, stdout, stderr = run_cli(capsys, "simulate", "--set", "preset=cbr-nominal",
                                   "--set", "duration_s=20.5", "--out", str(out))
    assert (code, stdout) == (1, "")
    assert stderr == ("error: out: summary worker exited with status 3 "
                      "before sending its results\n")
    assert sorted(p.name for p in out.iterdir()) == ["packets.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_child_that_raises_prints_why(tmp_path, capfd, monkeypatch):
    # The child leaves through os._exit, which skips the interpreter's own
    # printing of an uncaught exception; at fd level its stderr shows.
    def fail():
        raise RuntimeError("summary went wrong")

    summarize_failing_in_the_child(monkeypatch, fail)
    out = tmp_path / "o"
    code = main(["simulate", "--set", "preset=cbr-nominal", "--set", "duration_s=20.5",
                 "--out", str(out)])
    stderr = capfd.readouterr().err
    assert code == 1
    assert "Traceback (most recent call last):" in stderr
    assert "RuntimeError: summary went wrong\n" in stderr
    assert stderr.endswith("error: out: summary worker exited with status 1 "
                           "before sending its results\n")
    assert sorted(p.name for p in out.iterdir()) == ["packets.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cells_are_dealt_largest_first_back_and_forth():
    cells = cli.sweep_cells(ScenarioConfig(), range(1, 5), ["reference", "adaptive"])
    # Largest first, ties in cell order: 4r 4a 3r 3a 2r 2a 1r 1a.
    dealt = [[(cells[i].stations, cells[i].scheduler[0]) for i in share]
             for share in cli._deal(cells, 3)]
    assert dealt == [[(4, "r"), (2, "a"), (1, "r")],
                     [(4, "a"), (2, "r"), (1, "a")],
                     [(3, "r"), (3, "a")]]
    assert [len(share) for share in cli._deal(cells, 1)] == [8]


def test_usable_cpus_follow_the_affinity_set(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    use_cpus(monkeypatch, 1)
    assert cli._usable_cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._usable_cpus() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._usable_cpus() == 1


@pytest.mark.parametrize("schedulers", ["reference,adaptive", "adaptive,reference"])
@pytest.mark.parametrize("cpus, forks", [(1, True), (2, True), (3, True), (3, False)])
def test_sweep_matches_in_process_runs(tmp_path, capsys, monkeypatch, schedulers, cpus,
                                       forks):
    # Four stations of oversized I-frames, the fourth rejected by admission:
    # every cell has notes, and the sweep warns those of its largest cell,
    # in validate's order. Three CPUs give two children and shares of 3, 3
    # and 2 cells; when os.fork fails, every cell runs in this process. The
    # quality label holds U+2028 and U+0085, which str.splitlines() would
    # take for line breaks in a share's rows.
    cfg = write_config(tmp_path, preset="vbr-high", duration_s=21, seed=5,
                       quality="vbr\u2028high\x85", admission="on", on_reject="run",
                       traffic={"i_size": 20000})
    cells = cli.sweep_cells(load_scenario(cfg), range(1, 5), schedulers.split(","))
    reports = [engine.run(c) for c in cells]
    code, _, validated = run_cli(capsys, "validate", "--config", cfg, "--set", "stations=4")
    assert code == 0
    notes = [line.removeprefix("warning: ") for line in validated.splitlines()]
    assert [n.split(":")[0] for n in notes] == [
        "flow 3 rejected", "flow 0", "flow 1", "flow 2", "flow 3"]
    assert {n for r in reports for n in r.admission_notes + r.traffic_notes} == set(notes)
    use_cpus(monkeypatch, cpus)
    if not forks:
        monkeypatch.setattr(os, "fork", fork_fails)
    parent, ran_here, real_run_cell = os.getpid(), [], cli._run_cell

    def run_cell(cfg, stations):
        if os.getpid() == parent:
            ran_here.append(cfg)
        return real_run_cell(cfg, stations)

    monkeypatch.setattr(cli, "_run_cell", run_cell)
    out = tmp_path / "o"
    code, _, stderr = run_cli(capsys, "sweep", "--config", cfg, "--stations", "1..4",
                              "--schedulers", schedulers, "--out", str(out))
    assert code == 0
    assert (out / "summary.csv").read_bytes() == summarize(reports).encode()
    assert stderr == validated
    assert len(ran_here) == (8 if cpus == 1 or not forks else {2: 4, 3: 3}[cpus])


def set_up_or_error(cfg):
    """A cell's set-up as cmd_sweep sees it: the Simulation, or its error."""
    try:
        return cli._set_up(cfg)
    except (ConfigError, engine.SimulationError) as e:
        return type(e), str(e)


def notes(sim):
    return sim.admission_notes + sim.traffic_notes


def test_every_cell_sets_up_as_the_largest_allows(tmp_path):
    # cmd_sweep sets up only its largest cell, and runs every cell on its
    # stations. Over this grid, no cell may fail set-up unless the largest
    # does, with the same error, and no cell may have a note the largest
    # lacks. Where the largest sets up, every cell on its stations has the
    # notes and the summary row of the cell set up on its own.
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_text("0 I 0 9000\n1 P 40 20000\n2 B 80 800\n")
    bad.write_text("0 I 0 900\n1 Q 40 800\n")
    traffics = [{"preset": p, "traffic": {"i_size": i}}
                for p in ("vbr-high", "cbr-nominal") for i in (12160, 20000)]
    traffics += [{"preset": "vbr-high", "traffic": {"kind": "trace", "path": str(f)}}
                 for f in (good, bad)]
    traffics.append({"preset": "vbr-high", "loss_p": 0.1})
    seen, replayed = set(), 0
    for traffic, (admission, on_reject), start, stations, schedulers in itertools.product(
            traffics, [("off", "abort"), ("on", "abort"), ("on", "run")], (20, 25),
            (range(1, 7), range(3, 6)), (["reference", "adaptive"], ["adaptive", "reference"])):
        base = scenario_from_dict(dict(traffic, admission=admission, on_reject=on_reject,
                                       traffic_start_s=start, duration_s=21))
        cells = cli.sweep_cells(base, stations, schedulers)
        largest = set_up_or_error(max(cells, key=lambda c: c.stations))
        for cell in cells:
            got = set_up_or_error(cell)
            if isinstance(got, tuple):
                assert got == largest
                seen.add(got[1].split(" ")[0])
            else:
                assert isinstance(largest, tuple) or set(notes(got)) <= set(notes(largest))
                seen.update(n.split()[2] for n in notes(got))
            if not isinstance(largest, tuple):
                assert notes(engine.Simulation(cell, largest.stations)) == notes(got)
                assert (cli._run_cell(cell, largest.stations)
                        == metrics.summary_row(engine.run(cell)))
                replayed += 1
    assert replayed == 1008     # the cells of the points whose largest cell sets up
    # Both errors and all three note kinds occur in the grid.
    assert seen == {"admission", "stations[0].traffic.path:", "rejected:", "largest",
                    "traffic"}


@pytest.mark.parametrize("cpus", [1, 2])
def test_sweep_builds_each_synthetic_schedule_once(tmp_path, capsys, monkeypatch, cpus):
    # Station i replays the same schedule in all 24 cells of a 1..12 sweep.
    # The largest cell's set-up builds every schedule in this process, and
    # every cell, here or in a forked child, runs on them: a child that
    # builds a schedule fails.
    parent, built, stations = os.getpid(), [], []

    def synth_sizes(*args):
        if os.getpid() != parent:
            os._exit(3)
        built.append(args)
        return real_synth(*args)

    def build_stations(cfg):
        stations.append(real_build(cfg))
        return stations[-1]

    real_synth, real_build = engine.synth_sizes, engine._build_stations
    monkeypatch.setattr(engine, "synth_sizes", synth_sizes)
    monkeypatch.setattr(engine, "_build_stations", build_stations)
    engine._synth_schedule.cache_clear()
    use_cpus(monkeypatch, cpus)
    code, _, _ = run_cli(capsys, "sweep", "--set", "preset=vbr-high", "--set",
                         "duration_s=21", "--out", str(tmp_path / "o"))
    assert code == 0
    assert len(stations) == 1
    assert len(built) == len(stations[0]) == 12
    for st in stations[0]:
        assert isinstance(st.sizes, array) and st.sizes.typecode == "q"


def bad_file(tmp_path, kind) -> str:
    """A path that cannot be read as a UTF-8 text file of the wanted form."""
    path = tmp_path / f"bad-{kind}"
    if kind == "device":
        return os.devnull
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"# caf\xe9 (latin-1)\n0 I 0 900\n")
    elif kind == "malformed-yaml":
        path.write_text("stations: [1, 2\nseed: 3\n")
    elif kind == "top-level-list":
        path.write_text("- 1\n")
    elif kind == "top-level-scalar":
        path.write_text("42\n")
    return str(path)


BAD_CONFIGS = ["missing", "directory", "device", "not-utf8", "malformed-yaml",
               "top-level-list", "top-level-scalar"]


@pytest.mark.parametrize("command", ["validate", "simulate", "sweep"])
@pytest.mark.parametrize("kind", BAD_CONFIGS)
def test_unreadable_config_exits_2_naming_config(tmp_path, capsys, command, kind):
    code, stdout, stderr = run_cli(capsys, command, "--config", bad_file(tmp_path, kind),
                                   *out_argv(command, tmp_path / "o"))
    assert code == 2
    assert stderr.startswith("error: config: ")
    assert "Traceback" not in stderr
    assert "config ok" not in stdout
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["validate", "simulate", "sweep"])
@pytest.mark.parametrize("kind", BAD_CONFIGS)
def test_unreadable_config_is_refused_before_overrides(tmp_path, capsys, command, kind):
    # A --set override must not turn the file's own error into a traceback.
    path = bad_file(tmp_path, kind)
    argv = [command, "--config", path, *out_argv(command, tmp_path / "o")]
    plain = run_cli(capsys, *argv)
    overridden = run_cli(capsys, *argv, "--set", "seed=2", "--set", "traffic.jitter=0.1")
    assert overridden == plain
    assert plain[0] == 2
    assert plain[2].startswith("error: config: ")
    assert plain[2].count("error:") == 1


@pytest.mark.parametrize("command", ["validate", "simulate", "sweep", "trace-stats"])
@pytest.mark.parametrize("kind", ["missing", "directory", "device", "not-utf8"])
def test_unreadable_trace_exits_2_naming_it(tmp_path, capsys, monkeypatch, command, kind):
    use_cpus(monkeypatch, 2)  # sweep cells run in forked children
    path = bad_file(tmp_path, kind)
    if command == "trace-stats":
        argv, prefix = (path,), "error: trace: "
    else:
        cfg = write_config(tmp_path, duration_s=22, traffic={"kind": "trace", "path": path})
        argv = ("--config", cfg, *out_argv(command, tmp_path / "o"))
        argv += ("--stations", "1..2") if command == "sweep" else ()
        prefix = "error: stations[0].traffic.path: "
    code, stdout, stderr = run_cli(capsys, command, *argv)
    assert code == 2
    assert stderr.startswith(prefix)
    assert "Traceback" not in stderr
    assert stdout == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("argv, named", [
    (("validate", "--config", "{fifo}"), "config"),
    (("simulate", "--set", "traffic.kind=trace", "--set", "traffic.path={fifo}",
      "--set", "duration_s=21"), "stations[0].traffic.path"),
    (("trace-stats", "{fifo}"), "trace"),
])
def test_a_named_pipe_is_refused_not_opened(tmp_path, argv, named):
    # Opening a FIFO for reading blocks until something writes to it.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    argv = [arg.format(fifo=fifo) for arg in argv]
    out = [] if argv[0] == "trace-stats" else out_argv(argv[0], tmp_path / "o")
    done = run_cli_process(*argv, *out)
    assert done.returncode == 2
    assert done.stderr == f"error: {named}: not a regular file: '{fifo}'\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, value", [
    ("--stations", "a..b"),
    ("--stations", "3..1"),
    ("--schedulers", ","),
    ("--schedulers", "adaptive,reference, adaptive"),
])
def test_bad_sweep_flags_exit_2_naming_the_flag(tmp_path, capsys, flag, value):
    code, _, stderr = run_cli(capsys, "sweep", "--set", "preset=cbr-nominal",
                              "--set", "duration_s=20.5", flag, value,
                              "--out", str(tmp_path / "o"))
    assert code == 2
    assert stderr.startswith(f"error: {flag}: ")
    assert not (tmp_path / "o").exists()


def test_quality_with_a_comma_is_refused(tmp_path, capsys):
    # The label is a summary.csv field: a comma would add a column to the row.
    code, _, stderr = run_cli(capsys, "simulate", "--set", "preset=cbr-nominal",
                              "--set", "duration_s=20.5", "--set", "quality=a,b",
                              "--out", str(tmp_path / "o"))
    assert code == 2
    assert stderr.startswith("error: quality: ")
    assert not (tmp_path / "o").exists()
