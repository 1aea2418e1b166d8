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
from dataclasses import replace

from . import engine, metrics
from .config import (ConfigError, SCHEDULERS, ScenarioConfig, apply_overrides,
                     load_scenario, scenario_from_dict, stations_warning)
from .traffic import STATS_CSV_HEADER, load_trace, stats_csv_row, trace_stats

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


def cmd_simulate(args) -> int:
    try:
        cfg = _load_config(args)
        warn = stations_warning(cfg)
        if warn:
            _warn(warn)
        report = engine.run(cfg)
    except (ConfigError, engine.SimulationError) as e:
        return _fail(str(e))
    packets_path = os.path.join(args.out, "packets.csv")
    summary_path = os.path.join(args.out, "summary.csv")
    summary = metrics.summarize([report])
    try:
        os.makedirs(args.out, exist_ok=True)
        with open(packets_path, "w", encoding="utf-8", newline="\n") as fh:
            report.write_packets_csv(fh)
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
    lo_s, dots, hi_s = text.partition("..")
    try:
        lo = int(lo_s)
        hi = int(hi_s) if dots else lo
    except ValueError:
        raise ConfigError("--stations", f"expected N or A..B, got {text!r}") from None
    if lo < 1 or hi < lo:
        raise ConfigError("--stations", f"bad station range {text!r}")
    return range(lo, hi + 1)


def _parse_schedulers(text: str) -> list[str]:
    schedulers = [s.strip() for s in text.split(",") if s.strip()]
    if not schedulers:
        raise ConfigError("--schedulers", f"no scheduler named in {text!r}")
    for s in schedulers:
        if s not in SCHEDULERS:
            raise ConfigError("--schedulers", f"unknown scheduler {s!r}")
    return schedulers


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


def _run_cell(cfg: ScenarioConfig) -> tuple:
    """Run one sweep cell: its metrics.summary_row and its admission and
    traffic notes, all that summary.csv and the warnings need. A pool
    worker pickles this back rather than the whole report."""
    report = engine.run(cfg)
    return metrics.summary_row(report), report.admission_notes + report.traffic_notes


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else every CPU of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ProcessPoolExecutor(max_workers: int):
    """A process pool of max_workers. concurrent.futures is imported here,
    when a sweep starts a pool, so that no other command pays for it."""
    from concurrent.futures import ProcessPoolExecutor as Pool

    return Pool(max_workers=max_workers)


def _run_cells(cells) -> list:
    """_run_cell of every cell, in cell order."""
    workers = min(len(cells), _usable_cpus())
    if workers > 1:
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
        except OSError:
            pass  # sandboxed environments without semaphores: run serially
        else:
            # The pool hands out cells in the order given: largest first, so
            # no worker is left running a big cell alone at the end.
            order = sorted(range(len(cells)), key=lambda i: -cells[i].stations)
            # A cell's own error comes back from its worker and propagates.
            with pool:
                done = dict(zip(order, pool.map(_run_cell, [cells[i] for i in order])))
            return [done[i] for i in range(len(cells))]
    return [_run_cell(c) for c in cells]


def cmd_sweep(args) -> int:
    try:
        cfg = _load_config(args)
        cells = sweep_cells(cfg, _parse_station_range(args.stations),
                            _parse_schedulers(args.schedulers))
        for cell in cells:
            warn = stations_warning(cell)
            if warn:
                _warn(warn)
                break
        results = _run_cells(cells)
    except (ConfigError, engine.SimulationError) as e:
        return _fail(str(e))
    summary_path = os.path.join(args.out, "summary.csv")
    try:
        os.makedirs(args.out, exist_ok=True)
        with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(metrics.summary_csv(cells, [row for row, _ in results]))
    except OSError as e:
        print(f"error: out: {e}", file=sys.stderr)
        return EXIT_FAILURE
    # Station i replays the same traffic and TSPEC in every cell: say each
    # note once.
    for note in dict.fromkeys(n for _, notes in results for n in notes):
        _warn(note)
    _say(args, f"wrote {summary_path} ({len(results)} runs)")
    return EXIT_OK


def cmd_trace_stats(args) -> int:
    try:
        trace = load_trace(args.trace)
    except (OSError, ValueError) as e:
        return _fail(f"trace: {e}")
    stats = trace_stats(trace)
    print(STATS_CSV_HEADER)
    print(stats_csv_row(args.trace, stats))
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        cfg = _load_config(args)
        notes = engine.traffic_notes(cfg)  # parses referenced trace files too
    except ConfigError as e:
        return _fail(str(e))
    warn = stations_warning(cfg)
    if warn:
        _warn(warn)
    for note in notes:
        _warn(note)
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
