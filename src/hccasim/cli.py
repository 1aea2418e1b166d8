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
                     check_sweep_size, load_scenario, scenario_from_dict, stations_warning)
from .traffic import STATS_CSV_HEADER, load_trace, stats_csv_row, trace_stats

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
# Three note kinds (admission rejection, oversized frame, late start) for
# each station of the validated 1..12 range: no run inside it loses a note.
NOTES_SHOWN = 36


def _say(args, msg: str):
    if not args.quiet:
        print(msg)


def _warn(msg: str):
    print(f"warning: {msg}", file=sys.stderr)


def _warn_notes(notes: list[str]):
    """Warn each note, in order; past NOTES_SHOWN, count the rest."""
    for note in notes[:NOTES_SHOWN]:
        _warn(note)
    if len(notes) > NOTES_SHOWN:
        _warn(f"{len(notes) - NOTES_SHOWN} more notes not shown")


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def _fail_run(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_FAILURE


def _load_config(args) -> ScenarioConfig:
    if args.config:
        return load_scenario(args.config, args.set or [])
    return scenario_from_dict(apply_overrides({}, args.set or []))


def _set_up(cfg: ScenarioConfig) -> engine.Simulation:
    """Warn if cfg has more stations than the presets were validated for,
    and return its set-up, the engine.Simulation that simulate runs.
    Raises what simulate refuses before it runs."""
    warn = stations_warning(cfg)
    if warn:
        _warn(warn)
    return engine.Simulation(cfg)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else every CPU of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork(fn, *args) -> tuple[int, int] | None:
    """Fork a child that calls fn(*args), which returns a str, and writes
    that text to a pipe as UTF-8, then leaves with os._exit: status 0 once
    it is written, else 1, after printing to stderr the traceback of what
    raised. Returns (child pid, read end of the pipe) for _join, or None
    with no child where os.fork is missing or fails or fewer than two CPUs
    are usable: the caller then calls fn itself. This is the one place
    hccasim forks; the CLI starts no thread, so it may."""
    if not hasattr(os, "fork") or _usable_cpus() < 2:
        return None
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(r)
            with open(w, "w", encoding="utf-8", newline="") as fh:
                fh.write(fn(*args))
            status = 0
        except Exception:  # os._exit skips the handler that would print it
            import traceback

            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(status)
    os.close(w)  # else later children hold it open and the read never ends
    return pid, r


def _join(pid: int, r: int, who: str) -> str:
    """Read the text the child _fork started sent on r, reap it and return
    that text, fn's value. If the child ended without sending it, raises a
    ChildProcessError that names the child as who and says how it ended."""
    with open(r, encoding="utf-8", newline="") as fh:
        text = fh.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise ChildProcessError(f"{who} {how} before sending its results")
    return text


def cmd_simulate(args) -> int:
    """Run one scenario and write packets.csv, then summary.csv, under
    args.out. This process writes packets.csv while a child that _fork
    starts computes the summary and sends back its CSV text, all of about
    150 bytes; where _fork starts none, this process summarizes once the
    packet log is written. The files are the same either way, on one CPU
    (taskset -c 0) too, and summary.csv is written only once packets.csv
    has been. Whether the child pays depends on what the second CPU has
    free, so each reading below gives the capacity it was taken at: the
    time of two forked busy loops over one alone, 1.0 for two free CPUs
    and 2.0 for no parallel gain. On 2 CPUs at capacity 1.03-2.08, median
    1.2, the benchmark's wall_ratio was 0.889 forked against 1.006 on one
    CPU for vbr-adaptive-long (lower in 8 of 10 pairs) and 0.908 against
    1.030 for trace-reference-lossy (10 of 10), for about 1.2 MiB more
    peak RSS (28.84 against 27.75 MiB, 32.91 against 31.65 MiB). On 2 CPUs
    at capacity 2.0-2.1, the same command with no child was faster: in 16
    of 16 alternating pairs on trace-reference-lossy (225.7 against 236.7
    ms) and in 14 of 16 on vbr-adaptive-long (216.7 against 222.6 ms)."""
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
    try:
        os.makedirs(args.out, exist_ok=True)
        summarizer = _fork(metrics.summarize, [report])
        try:
            with open(packets_path, "w", encoding="utf-8", newline="\n") as fh:
                report.write_packets_csv(fh)
        finally:
            summary = summarizer and _join(*summarizer, "summary worker")
        summary = summary or metrics.summarize([report])
        with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(summary)
    except OSError as e:   # a dead summary worker too: ChildProcessError
        return _fail_run(f"out: {e}")
    _warn_notes(report.admission_notes + report.traffic_notes)
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
    for i, s in enumerate(schedulers):
        if s not in SCHEDULERS:
            raise ConfigError("--schedulers", f"unknown scheduler {s!r}")
        if s in schedulers[:i]:
            raise ConfigError("--schedulers", f"scheduler {s!r} named twice")
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


def _run_cell(cfg: ScenarioConfig, stations) -> str:
    """Run one sweep cell on the first cfg.stations of stations and return
    its metrics.summary_row, all that summary.csv needs of it: a forked
    child sends back only these rows."""
    return metrics.summary_row(engine.Simulation(cfg, stations).run())


def _deal(cells, shares: int) -> list[list[int]]:
    """The index of every cell, dealt into `shares` lists: cells with the
    most stations first, dealt back and forth (shares 0, 1, ..., 1, 0, 0,
    1, ...) so that each share gets a like mix of large and small cells
    and none ends running a big cell alone."""
    order = sorted(range(len(cells)), key=lambda i: -cells[i].stations)
    dealt = [[] for _ in range(shares)]
    for k, i in enumerate(order):
        lap, j = divmod(k, shares)
        dealt[shares - 1 - j if lap % 2 else j].append(i)
    return dealt


def _run_share(cells, stations, share) -> str:
    """_run_cell of each cell of share, in share order, one row per line.
    No row holds a "\n", but a quality label may hold other line breaks."""
    return "\n".join(_run_cell(cells[i], stations) for i in share)


def _run_cells(cells, stations) -> list[str]:
    """_run_cell of every cell on stations, in cell order. The cells are
    dealt into one share per usable CPU; a child that _fork starts, and that
    inherits stations, runs each share after the first, and this process
    runs the first itself, so no worker waits to start and no CPU sits idle.
    A share _fork starts no child for runs in this process after the first.
    Every child is reaped; then the ChildProcessError of the first child
    that died without sending its rows is raised."""
    shares = _deal(cells, min(len(cells), _usable_cpus()))
    children = [(share, _fork(_run_share, cells, stations, share)) for share in shares[1:]]
    texts, error = [], None
    try:
        texts.append((shares[0], _run_share(cells, stations, shares[0])))
        texts += [(share, _run_share(cells, stations, share))
                  for share, child in children if not child]
    finally:
        for share, child in children:
            if child:
                try:
                    texts.append((share, _join(*child, "sweep worker")))
                except ChildProcessError as e:
                    error = error or e
    if error:
        raise error
    rows = dict(row for share, text in texts for row in zip(share, text.split("\n")))
    return [rows[i] for i in range(len(cells))]


def cmd_sweep(args) -> int:
    """Set the largest cell up as validate would, run every cell on its
    stations and write summary.csv under args.out. That set-up's error
    stops the sweep before any child starts; its warnings are the sweep's."""
    try:
        cfg = _load_config(args)
        stations = _parse_station_range(args.stations)
        schedulers = _parse_schedulers(args.schedulers)
        check_sweep_size(cfg, stations, len(schedulers))
        cells = sweep_cells(cfg, stations, schedulers)
        # sweep_cells pins the traffic seed, so each cell's stations are the
        # first n of the largest cell's, and it runs on those. Set-up reads
        # neither the scheduler nor the run seed, and sched.admit decides
        # each stream from the streams before it, so a cell fails set-up
        # only if the largest does, with the same text, and every cell's
        # notes are among the largest's.
        largest = _set_up(max(cells, key=lambda c: c.stations))
        rows = _run_cells(cells, largest.stations)
    except (ConfigError, engine.SimulationError) as e:
        return _fail(str(e))
    except ChildProcessError as e:   # the input was fine; a worker died
        return _fail_run(str(e))
    summary_path = os.path.join(args.out, "summary.csv")
    try:
        os.makedirs(args.out, exist_ok=True)
        with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(metrics.summary_csv(cells, rows))
    except OSError as e:
        return _fail_run(f"out: {e}")
    _warn_notes(largest.admission_notes + largest.traffic_notes)
    _say(args, f"wrote {summary_path} ({len(rows)} runs)")
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
    """Set the scenario up as simulate does, in engine.Simulation, and stop
    before the first CAP: the same warnings, and the same error and exit
    code for what simulate refuses before it runs."""
    try:
        sim = _set_up(_load_config(args))
    except (ConfigError, engine.SimulationError) as e:
        return _fail(str(e))
    _warn_notes(sim.admission_notes + sim.traffic_notes)
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
        p.add_argument("--quiet", action="store_true", help="suppress status output")

    def add_writer(p):
        add_common(p)
        p.add_argument("--out", metavar="DIR", default="results",
                       help="output directory (default: results)")

    p_sim = sub.add_parser("simulate", help="run one scenario")
    add_writer(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run a scheduler x stations grid")
    add_writer(p_sweep)
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
