"""Command-line front end.

Commands:
    simulate     run one scenario, write packet log + summary CSV
    sweep        run a (scheduler x station-count) grid, write summary CSV
    trace-stats  print statistics of a video trace file as one CSV row
    validate     check a scenario config and exit

Overrides use dotted paths into the config, e.g. --set traffic.jitter=0.3.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from . import engine, metrics
from .config import (ConfigError, SCHEDULERS, ScenarioConfig, apply_overrides,
                     load_scenario, scenario_from_dict, stations_warning)
from .traffic import STATS_CSV_HEADER, TraceParseError, load_trace, stats_csv_row, trace_stats

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _say(args, msg: str):
    if not args.quiet:
        print(msg)


def _warn(msg: str):
    print(f"warning: {msg}", file=sys.stderr)


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def _load_config(args) -> ScenarioConfig:
    if args.config:
        return load_scenario(args.config, args.set or [])
    return scenario_from_dict(apply_overrides({}, args.set or []))


def _ensure_outdir(path: str):
    os.makedirs(path, exist_ok=True)


def cmd_simulate(args) -> int:
    try:
        cfg = _load_config(args)
    except FileNotFoundError as e:
        return _fail(f"config: {e}")
    except ConfigError as e:
        return _fail(str(e))
    warn = stations_warning(cfg)
    if warn:
        _warn(warn)
    try:
        report = engine.run(cfg)
    except (engine.SimulationError, ConfigError, TraceParseError) as e:
        return _fail(str(e))
    except FileNotFoundError as e:
        return _fail(f"traffic.path: {e}")
    packets_path = os.path.join(args.out, "packets.csv")
    summary_path = os.path.join(args.out, "summary.csv")
    summary = metrics.summarize([report])
    try:
        _ensure_outdir(args.out)
        with open(packets_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report.packets_csv())
        with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(summary)
    except OSError as e:
        print(f"error: out: {e}", file=sys.stderr)
        return EXIT_FAILURE
    for note in report.admission_notes + report.traffic_notes:
        _warn(note)
    _say(args, f"wrote {packets_path} and {summary_path}")
    _say(args, summary.rstrip("\n"))
    return EXIT_OK


def _parse_station_range(text: str) -> range:
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if lo < 1 or hi < lo:
        raise ValueError(f"bad station range {text!r}")
    return range(lo, hi + 1)


def sweep_cells(base: ScenarioConfig, stations: range, schedulers) -> list[ScenarioConfig]:
    """Per-cell scenarios. The run seed is derived from the cell itself
    (base + 2*stations + scheduler offset) so adding cells never perturbs
    others; the traffic seed stays fixed so both schedulers replay the
    identical workload at equal station counts."""
    if base.station_specs:
        raise ConfigError("stations", "sweep requires a station count, not a per-station list")
    traffic = base.traffic
    if traffic.seed is None:
        traffic = replace(traffic, seed=base.seed)
    cells = []
    for sched in schedulers:
        off = SCHEDULERS.index(sched)
        for n in stations:
            cells.append(replace(base, scheduler=sched, stations=n,
                                 seed=base.seed + 2 * n + off, traffic=traffic))
    return cells


def _run_cell(cfg: ScenarioConfig) -> engine.SimReport:
    return engine.run(cfg)


def _run_cells(cells):
    workers = min(len(cells), os.cpu_count() or 1)
    if workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(_run_cell, cells))
        except OSError:
            pass  # sandboxed environments without semaphores: run serially
    return [_run_cell(c) for c in cells]


def cmd_sweep(args) -> int:
    try:
        cfg = _load_config(args)
        stations = _parse_station_range(args.stations)
        schedulers = [s.strip() for s in args.schedulers.split(",") if s.strip()]
        for s in schedulers:
            if s not in SCHEDULERS:
                raise ConfigError("--schedulers", f"unknown scheduler {s!r}")
        cells = sweep_cells(cfg, stations, schedulers)
    except FileNotFoundError as e:
        return _fail(f"config: {e}")
    except (ConfigError, ValueError) as e:
        return _fail(str(e))
    for cell in cells:
        warn = stations_warning(cell)
        if warn:
            _warn(warn)
            break
    try:
        reports = _run_cells(cells)
    except (engine.SimulationError, ConfigError, TraceParseError) as e:
        return _fail(str(e))
    summary_path = os.path.join(args.out, "summary.csv")
    try:
        _ensure_outdir(args.out)
        with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(metrics.summarize(reports))
    except OSError as e:
        print(f"error: out: {e}", file=sys.stderr)
        return EXIT_FAILURE
    # Station i replays the same traffic in every cell: say each note once.
    for note in dict.fromkeys(n for r in reports for n in r.traffic_notes):
        _warn(note)
    _say(args, f"wrote {summary_path} ({len(reports)} runs)")
    return EXIT_OK


def cmd_trace_stats(args) -> int:
    try:
        trace = load_trace(args.trace)
    except FileNotFoundError as e:
        return _fail(f"trace: {e}")
    except TraceParseError as e:
        return _fail(f"trace: {e}")
    stats = trace_stats(trace)
    print(STATS_CSV_HEADER)
    print(stats_csv_row(args.trace, stats))
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        cfg = _load_config(args)
    except FileNotFoundError as e:
        return _fail(f"config: {e}")
    except ConfigError as e:
        return _fail(str(e))
    # Resolve and parse referenced trace files too.
    for i, spec in enumerate(cfg.station_list()):
        if spec.traffic.kind == "trace":
            try:
                load_trace(spec.traffic.path, spec.traffic.frame_interval_ns)
            except FileNotFoundError as e:
                return _fail(f"stations[{i}].traffic.path: {e}")
            except TraceParseError as e:
                return _fail(f"stations[{i}].traffic.path: {e}")
    warn = stations_warning(cfg)
    if warn:
        _warn(warn)
    _say(args, "config ok")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hccasim",
        description="HCCA polling simulator: reference vs adaptive TXOP scheduling")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", metavar="PATH", help="scenario YAML file")
        p.add_argument("--set", metavar="K=V", action="append", default=[],
                       help="override a config key (dotted path), repeatable")
        p.add_argument("--out", metavar="DIR", default="results",
                       help="output directory (default: results)")
        p.add_argument("--quiet", action="store_true", help="suppress status output")

    p_sim = sub.add_parser("simulate", help="run one scenario")
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run a scheduler x stations grid")
    add_common(p_sweep)
    p_sweep.add_argument("--stations", metavar="A..B", default="1..12",
                         help="station count range (default: 1..12)")
    p_sweep.add_argument("--schedulers", metavar="LIST",
                         default="reference,adaptive",
                         help="comma-separated scheduler list")
    p_sweep.set_defaults(func=cmd_sweep)

    p_stats = sub.add_parser("trace-stats", help="print trace statistics CSV")
    p_stats.add_argument("trace", help="trace file path")
    p_stats.add_argument("--quiet", action="store_true")
    p_stats.set_defaults(func=cmd_trace_stats)

    p_val = sub.add_parser("validate", help="check a scenario config")
    add_common(p_val)
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
