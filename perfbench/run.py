"""hccasim benchmark: host cost of the `simulate` and `sweep` commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the program is imported from
``src/``. Workloads and their reasons are in ``workloads.py`` and
``BENCHMARK.json``.

Each run generates its inputs from the seed, then for S seconds repeats,
interleaved:
  * the CLI command as a fresh process, untraced (wall time, peak RSS);
  * the calibration kernel (``calibrate.py``), one copy per CPU at once;
  * a set-up probe in a fresh process (launch until every Simulation the
    command needs is built, before its first CAP).
Every repeat's outputs are hashed; the hashes must agree, and the first
repeat's outputs are re-derived in this process through the public API.
Timings are medians over the repeats.

The host this was built on changes speed by 20-40 % within minutes, for
every process alike, so medians of raw seconds from two runs a minute
apart can differ by more than any useful bound. The bounded timing metric
is therefore ``wall_ratio``: each CLI wall time divided by the mean of the
calibration times measured just before and just after it, and the median
of those ratios. Raw ``wall_s`` and ``frames_per_s`` are still printed and
recorded. ``setup_s`` stays in seconds.

With ``--trace 1`` the same untraced repeats run first, then the CLI once
more in a traced child (``child.py``) for the per-layer metrics; the map
from each layer metric to the end-to-end metric it should move is in
``layer_map.json``. The last stdout line is the result as one JSON object;
the full record (host, seed, hashes, summary rows, samples) is printed
before it and written under ``perfbench/_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
RESULTS = WORK / "results"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
CAL_PROCS = min(2, len(os.sched_getaffinity(0)))


class BenchError(RuntimeError):
    pass


# -- processes ------------------------------------------------------------

def _env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def run_child(argv: list[str], log: Path) -> tuple[float, float, int]:
    """Run a fresh interpreter to completion: (wall s, peak RSS MiB, exit
    code). RSS is the maximum over the child and the children it waited
    for (the sweep's pool workers), from wait4's rusage."""
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], env=_env(), cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def time_setup(argv: list[str]) -> float:
    """Seconds from launching ``child.py setup`` to its "ready" line."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "child.py"), "setup", *argv],
                          env=_env(), cwd=ROOT, stdout=subprocess.PIPE) as proc:
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if code != 0 or not line.startswith(b"ready"):
        raise BenchError(f"set-up probe failed (exit {code})")
    return t1 - t0


def calibrate() -> float:
    """Mean time of the calibration kernel, one copy per CPU at once."""
    procs = [subprocess.Popen([sys.executable, str(HERE / "calibrate.py")],
                              stdout=subprocess.PIPE) for _ in range(CAL_PROCS)]
    times = []
    for proc in procs:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"calibration kernel failed (exit {proc.returncode})")
        times.append(float(out))
    return statistics.fmean(times)


def cli_argv(args: list[str]) -> list[str]:
    """The installed ``hccasim`` console script, run from source."""
    return ["-c", "import sys; from hccasim.cli import main; sys.exit(main())", *args]


# -- outputs ---------------------------------------------------------------

def output_files(wl, out: Path) -> list[Path]:
    names = ["summary.csv"] if wl.command == "sweep" else ["packets.csv", "summary.csv"]
    return [out / n for n in names]


def output_sha256(wl, out: Path) -> str:
    h = hashlib.sha256()
    for path in output_files(wl, out):
        h.update(path.read_bytes())
    return h.hexdigest()


def _fmt_us(value_ns) -> str:
    return "" if value_ns is None else str(round(value_ns / 1000))


def rederive_summary(packets_text: str, summary_text: str, cfg) -> str | None:
    """Recompute the summary row from packets.csv through the public metric
    functions; overruns are not in the packet log and are taken as written."""
    from hccasim import metrics

    log = metrics.parse_packets_csv(packets_text)
    lines = summary_text.splitlines()
    if len(lines) != 2 or lines[0] != metrics.SUMMARY_CSV_HEADER:
        return "summary.csv is not a header plus one row"
    delays = sorted(p.recv_ns - p.gen_ns for p in log if not p.lost)
    window = cfg.duration_ns - cfg.traffic_start_ns
    row = ",".join([
        cfg.scheduler, str(cfg.stations), cfg.quality,
        _fmt_us(metrics.mean_e2e_delay(log)),
        _fmt_us(metrics.nearest_rank_percentile(delays, 95)),
        _fmt_us(delays[-1] if delays else None),
        f"{metrics.aggregate_throughput(log, window):.1f}",
        str(len(delays)), str(sum(p.lost for p in log)),
        lines[1].rsplit(",", 1)[-1]])
    if row != lines[1]:
        return f"summary row {lines[1]!r} differs from packets.csv: {row!r}"
    return None


def serial_sweep(inputs, record_polls=False):
    """The sweep's cells run in this process: (reports, seconds)."""
    from hccasim import cli, engine
    from hccasim.config import load_scenario
    from workloads import SCHEDULERS, SWEEP_STATIONS

    lo, _, hi = SWEEP_STATIONS.partition("..")
    cells = cli.sweep_cells(load_scenario(inputs.config), range(int(lo), int(hi) + 1),
                            SCHEDULERS.split(","))
    if record_polls:
        cells = [replace(c, record_polls=True) for c in cells]
    t0 = time.perf_counter()
    reports = [engine.run(c) for c in cells]
    return reports, time.perf_counter() - t0


def grant_used_ratio(wl, inputs) -> float:
    """Sum of used over granted TXOP time, from an untimed pass with
    record_polls on (the paper's wasted-TXOP statistic)."""
    from hccasim import engine
    from hccasim.config import load_scenario

    if wl.command == "sweep":
        reports, _ = serial_sweep(inputs, record_polls=True)
    else:
        reports = [engine.run(replace(load_scenario(inputs.config), record_polls=True))]
    used = sum(p.used_ns for r in reports for p in r.polls)
    granted = sum(p.grant_ns for r in reports for p in r.polls)
    return used / granted if granted else 0.0


# -- host ------------------------------------------------------------------

def host_info() -> dict:
    sha = None          # stays None outside a git checkout of this tree
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, check=True).stdout.split()
        if Path(top).resolve() == ROOT:
            sha = head
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "hccasim").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "cpu_count": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)), "loadavg_start": os.getloadavg()}


# -- one workload ---------------------------------------------------------------

def describe(samples: list[float]) -> dict:
    q = statistics.quantiles(samples, n=4) if len(samples) > 1 else [samples[0]] * 3
    return {"n": len(samples), "median": statistics.median(samples), "q1": q[0], "q3": q[2],
            "min": min(samples), "max": max(samples), "samples": samples}


def run_workload(wl, seed: int, seconds: float, trace: bool, scale: float, work: Path) -> dict:
    import workloads

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = {"workload": wl.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "scale": scale, "host": host_info()}
    inputs = workloads.prepare(wl, seed, work, scale)
    problems = workloads.check_traces(inputs)
    setup_args = ["--config", str(inputs.config)]
    if wl.command == "sweep":
        setup_args += ["--sweep", workloads.SWEEP_STATIONS, workloads.SCHEDULERS]

    time_setup(setup_args)      # warm-up: bytecode caches, page cache
    walls, rss, setups, hashes, codes, cals = [], [], [], [], [], [calibrate()]
    first_out = work / "out-0"
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_REPS or time.perf_counter() < deadline:
        out = first_out if not walls else work / "out-rep"
        wall, peak, code = run_child(cli_argv(inputs.cli_args(wl, out)), work / "cli.err")
        cals.append(calibrate())
        codes.append(code)
        hashes.append(output_sha256(wl, out) if code == 0 else None)
        walls.append(wall)
        rss.append(peak)
        setups.append(time_setup(setup_args))
    ratios = [w / statistics.fmean(c) for w, c in zip(walls, zip(cals, cals[1:]))]
    shutil.rmtree(work / "out-rep", ignore_errors=True)

    attempted = len(walls)
    failed = sum(1 for c, h in zip(codes, hashes) if c != 0 or h != hashes[0])
    if codes[0] != 0:
        err = (work / "cli.err").read_text(errors="replace")
        problems.append("CLI failed: " + err[-2000:])
    summary_text = ""
    reports = serial_s = None
    if codes[0] == 0:
        from hccasim.config import load_scenario

        summary_text = (first_out / "summary.csv").read_text()
        if wl.command == "sweep":
            from hccasim import metrics

            reports, serial_s = serial_sweep(inputs)
            if metrics.summarize(reports) != summary_text:
                problems.append("sweep summary.csv differs from metrics.summarize "
                                "of in-process runs")
        else:
            packets = (first_out / "packets.csv").read_text()
            problem = rederive_summary(packets, summary_text, load_scenario(inputs.config))
            if problem:
                problems.append(problem)

    wall = describe(walls)
    msdus = sum(int(row.split(",")[7]) + int(row.split(",")[8])
                for row in summary_text.splitlines()[1:])
    record.update(
        output_sha256=hashes[0], summary_rows=summary_text.splitlines()[1:], msdus=msdus,
        wall_s=wall, frames_per_s=msdus / wall["median"], calibration_s=describe(cals),
        wall_ratio=describe(ratios), setup_s=describe(setups), peak_rss_mb=describe(rss))
    metrics = {
        "wall_ratio": {"value": statistics.median(ratios), "unit": "ratio"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MiB"},
    }
    if trace and codes[0] == 0:
        metrics = traced_metrics(wl, inputs, work, wall["median"], hashes[0], reports,
                                 serial_s, record, problems)
    if problems:
        failed = attempted
    record.update(problems=problems, attempted=attempted, failed=failed,
                  failed_share=failed / attempted, metrics=metrics)
    record["host"]["loadavg_end"] = os.getloadavg()
    return record


def traced_metrics(wl, inputs, work, untraced_wall, untraced_hash, reports, serial_s,
                   record, problems) -> dict:
    import workloads

    out = work / "out-traced"
    spans_path = RESULTS / f"{work.name}-spans-cli.json"
    cells_path = RESULTS / f"{work.name}-spans-cells.json"
    child = str(HERE / "child.py")
    traced_wall, _, code = run_child(
        [child, "trace-cli", "--spans", str(spans_path), "--", *inputs.cli_args(wl, out)],
        work / "trace.err")
    if code != 0:
        raise BenchError("traced run failed: " + (work / "trace.err").read_text()[-2000:])
    traced_hash = output_sha256(wl, out)
    if traced_hash != untraced_hash:
        problems.append(f"traced output sha256 {traced_hash} != untraced {untraced_hash}")
    cli_dump = json.loads(spans_path.read_text())
    engine_dump = cli_dump
    trace_files = [spans_path]
    if wl.command == "sweep":
        _, _, code = run_child(
            [child, "trace-cells", "--spans", str(cells_path), "--config", str(inputs.config),
             "--sweep", workloads.SWEEP_STATIONS, workloads.SCHEDULERS], work / "cells.err")
        if code != 0:
            err = (work / "cells.err").read_text()
            raise BenchError("traced cells run failed: " + err[-2000:])
        engine_dump = json.loads(cells_path.read_text())
        trace_files.append(cells_path)
    record.update(traced_wall_s=traced_wall, traced_sha256=traced_hash,
                  trace_missing_targets=sorted({*cli_dump["missing"], *engine_dump["missing"]}),
                  trace_files=[str(p.relative_to(ROOT)) for p in trace_files])

    def span(dump, name, key="ns"):
        return dump["totals"]["spans"].get(name, {}).get(key, 0)

    runs = engine_dump["totals"]["spans"].get("engine.run", {})
    if runs.get("conservation_failures", 0) or not runs.get("calls"):
        problems.append("SimReport.conservation_ok() failed in the traced pass")
    polls = sum(runs.get(k, 0) for k in
                ("polls_adaptive", "polls_reference", "polls_fallback", "polls_minimal"))
    loop_ns = span(engine_dump, "engine.loop")
    txop = engine_dump["totals"]["leaves"].get("sched.txop", {})
    counts = engine_dump["totals"]["counts"]
    sweep = wl.command == "sweep"
    workers = (span(cli_dump, "sweep.pool", "workers") or 1) if sweep else 0
    serial_s = serial_s or 0.0
    values = {
        "config.load_s": span(cli_dump, "config.load_scenario") / 1e9,
        "traffic.synth_s": span(engine_dump, "traffic.synth_trace") / 1e9,
        "traffic.synth_frames": span(engine_dump, "traffic.synth_trace", "frames"),
        "traffic.arrivals_s": span(engine_dump, "traffic.arrivals") / 1e9,
        "traffic.parse_s": span(engine_dump, "traffic.load_trace") / 1e9,
        "traffic.parse_frames": span(engine_dump, "traffic.load_trace", "frames"),
        "sched.txop_calls": txop.get("calls", 0),
        "sched.txop_s": txop.get("ns", 0) / 1e9,
        "phy.tx_duration_calls": counts.get("phy.tx_duration", 0),
        "phy.data_tx_time_calls": counts.get("phy.data_tx_time", 0),
        "engine.init_self_s": span(engine_dump, "engine.init", "self_ns") / 1e9,
        "engine.run_s": loop_ns / 1e9,
        "engine.host_ns_per_poll": loop_ns / polls if polls else 0.0,
        "engine.host_ns_per_frame": (loop_ns / runs["data_frames"]
                                     if runs.get("data_frames") else 0.0),
        "engine.caps": runs.get("caps", 0),
        "engine.polls": polls,
        "engine.polls_adaptive": runs.get("polls_adaptive", 0),
        "engine.polls_reference": runs.get("polls_reference", 0),
        "engine.polls_fallback": runs.get("polls_fallback", 0),
        "engine.polls_minimal": runs.get("polls_minimal", 0),
        "engine.data_frames": runs.get("data_frames", 0),
        "engine.null_frames": runs.get("null_frames", 0),
        "engine.lost_frames": runs.get("lost_frames", 0),
        "engine.beacons": runs.get("beacons", 0),
        "engine.events": sum(runs.get(k, 0) for k in ("generated", "beacons", "caps")),
        "engine.queued_end": runs.get("queued_end", 0),
        "engine.grant_used_ratio": grant_used_ratio(wl, inputs),
        "report.packets_csv_s": span(cli_dump, "report.packets_csv") / 1e9,
        "report.packets_csv_bytes": span(cli_dump, "report.packets_csv", "bytes"),
        "metrics.summarize_s": span(cli_dump, "metrics.summarize") / 1e9,
        "cli.self_s": span(cli_dump, "cli.main", "self_ns") / 1e9,
        "sweep.cells": len(reports) if sweep else 0,
        "sweep.workers": workers,
        "sweep.dispatch_s": span(cli_dump, "sweep.dispatch") / 1e9,
        "sweep.cells_serial_s": serial_s,
        "sweep.result_bytes": sum(len(pickle.dumps(r)) for r in reports) if sweep else 0,
        "sweep.pool_overhead_s": untraced_wall - serial_s / workers if sweep else 0.0,
        "sweep.parallel_efficiency": serial_s / (workers * untraced_wall) if sweep else 0.0,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    return {name: {"value": values[name], "unit": units[name]} for name in units}


# -- command line ------------------------------------------------------------

def print_record(rec: dict):
    print(f"# {rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"sha256={rec['output_sha256']}")
    for name, m in rec["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"  {'wall_s':28s} {rec['wall_s']['median']:.6g} s (raw, not bounded)")
    print(f"  {'frames_per_s':28s} {rec['frames_per_s']:.6g} 1/s (raw, not bounded)")
    print(f"  {'failed_share':28s} {rec['failed_share']:.6g} share "
          f"({rec['failed']}/{rec['attempted']})")
    for problem in rec["problems"]:
        print(f"  PROBLEM: {problem}")
    print(json.dumps(rec, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shorten simulated time (the self-check uses a tiny scale)")
    args = ap.parse_args(argv)

    if not (SRC / "hccasim" / "cli.py").is_file():
        print(f"error: no hccasim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    RESULTS.mkdir(parents=True, exist_ok=True)
    records = []
    for name in names:
        tag = f"{name}-seed{args.seed}-trace{args.trace}"
        work = WORK / tag
        try:
            rec = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                               args.scale, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        rec["why"] = next((w["why"] for w in SPEC["workloads"] if w["name"] == name), None)
        (RESULTS / f"{tag}.json").write_text(json.dumps(rec, indent=1, sort_keys=True))
        print_record(rec)
        records.append(rec)
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else rec["workload"] + "."
        metrics.update({prefix + k: v for k, v in rec["metrics"].items()})
    print(json.dumps({"correct": all(not r["problems"] and not r["failed"] for r in records),
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
