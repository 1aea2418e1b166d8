"""Benchmark workloads and their seeded inputs.

Every input a workload needs (the scenario YAML and, for the trace
workload, one 4-column trace file per station) is generated here from the
benchmark's seed argument, with this module's own generator. The trace
generator deliberately does not use ``hccasim.traffic.synth_trace``: the
trace workload is the no-change control for optimisations of that code.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import yaml

SCHEDULERS = "reference,adaptive"
SWEEP_STATIONS = "1..12"

# Trace generator: a 12-frame GoP whose sizes follow a slowly drifting
# scene activity (AR(1) in the log domain) times per-frame log-normal
# noise. The bases give a mean near 3.8 kB (the jurassic-high TSPEC's
# nominal MSDU); the clamp keeps every frame below that TSPEC's maximum
# MSDU (16 745 B), so a reference grant always fits the head frame, and
# puts the peak-to-mean near 4, as in the vbr-high preset.
GOP = "IBBPBBPBBPBB"
GOP_BASE_BYTES = {"I": 11000, "P": 4600, "B": 2400}
MIN_FRAME_BYTES = 64
MAX_FRAME_BYTES = 16000
FRAME_INTERVAL_MS = 40
PEAK_TO_MEAN_RANGE = (3.5, 4.5)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; why each exists is in BENCHMARK.json."""

    name: str
    command: str            # CLI subcommand: simulate | sweep
    stations: int
    duration_s: float

    def scenario_seed(self, seed: int) -> int:
        return random.Random(f"perfbench:{self.name}:{seed}").randrange(1, 2**31)


WORKLOADS = {w.name: w for w in (
    Workload("vbr-adaptive-long", "simulate", 8, 600.0),
    Workload("trace-reference-lossy", "simulate", 8, 600.0),
    Workload("sweep-readme", "sweep", 12, 50.0),
)}


@dataclass(frozen=True)
class Inputs:
    config: Path
    traces: tuple           # trace file paths (trace workload only)

    def cli_args(self, wl: Workload, out_dir: Path) -> list[str]:
        args = [wl.command, "--config", str(self.config), "--out", str(out_dir), "--quiet"]
        if wl.command == "sweep":
            args += ["--stations", SWEEP_STATIONS, "--schedulers", SCHEDULERS]
        return args


def _trace_text(rng: random.Random, n_frames: int, phase: int) -> str:
    activity = 0.0
    lines = []
    for k in range(n_frames):
        ftype = GOP[(k + phase) % len(GOP)]
        if ftype == "I" or k == 0:
            activity = 0.7 * activity + rng.gauss(0.0, 0.15)
        size = GOP_BASE_BYTES[ftype] * math.exp(activity + rng.gauss(0.0, 0.15))
        size = min(MAX_FRAME_BYTES, max(MIN_FRAME_BYTES, round(size)))
        lines.append(f"{k} {ftype} {k * FRAME_INTERVAL_MS} {size}")
    return "\n".join(lines) + "\n"


def prepare(wl: Workload, seed: int, work: Path, scale: float = 1.0) -> Inputs:
    """Write the workload's inputs under ``work``. ``scale`` shortens the
    simulated time after the 20 s warm-up (1.0 = the benchmark's size)."""
    warmup_s = 20.0
    duration_s = warmup_s + (wl.duration_s - warmup_s) * scale
    scenario = {"preset": "vbr-high", "stations": wl.stations,
                "duration_s": duration_s, "seed": wl.scenario_seed(seed)}
    traces = []
    if wl.name == "vbr-adaptive-long":
        scenario["scheduler"] = "adaptive"
    elif wl.name == "trace-reference-lossy":
        rng = random.Random(f"perfbench:{wl.name}:{seed}:traces")
        n_frames = math.ceil((duration_s - warmup_s) * 1000 / FRAME_INTERVAL_MS)
        station_list = []
        for i in range(wl.stations):
            path = work / f"trace_{i}.txt"
            path.write_text(_trace_text(rng, n_frames, 5 * i), encoding="utf-8")
            traces.append(path)
            station_list.append({"traffic": {"kind": "trace", "path": str(path)}})
        scenario.update(scheduler="reference", loss_p=0.05, stations=station_list)
    config = work / "scenario.yaml"
    config.write_text(yaml.safe_dump(scenario, sort_keys=True), encoding="utf-8")
    return Inputs(config, tuple(traces))


def check_traces(inputs: Inputs) -> list[str]:
    """Problems with the generated trace files, read back through
    ``hccasim.traffic``: GoP order, size ordering I > P > B, peak-to-mean."""
    from hccasim.traffic import load_trace, trace_stats

    problems = []
    for i, path in enumerate(inputs.traces):
        trace = load_trace(path)
        types = "".join(r.frame_type for r in trace.records)
        phase = 5 * i
        expected = "".join(GOP[(k + phase) % len(GOP)] for k in range(len(types)))
        if types != expected:
            problems.append(f"{path.name}: frame types do not follow the GoP {GOP}")
        means = {}
        for t in "IPB":
            sizes = [r.size_bytes for r in trace.records if r.frame_type == t]
            means[t] = sum(sizes) / len(sizes) if sizes else 0.0
        if not means["I"] > means["P"] > means["B"] > 0:
            problems.append(f"{path.name}: mean sizes not I > P > B: {means}")
        p2m = trace_stats(trace).peak_to_mean
        lo, hi = PEAK_TO_MEAN_RANGE
        if not lo <= p2m <= hi:
            problems.append(f"{path.name}: peak-to-mean {p2m:.3f} outside [{lo}, {hi}]")
    return problems
