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
# Three note kinds (admission rejection, oversized frame, late start) for
# each station of the validated 1..12 range: no run inside it loses a note.
NOTES_SHOWN = 36


def _say(args, msg: str):
    if not args.quiet:
        print(msg)


def _warn(msg: str):
    print(f"warning: {msg}", file=sys.stderr)


def _warn_notes(notes):
    """Warn once per distinct note, in order; past NOTES_SHOWN, count the rest."""
    notes = list(dict.fromkeys(notes))
    for note in notes[:NOTES_SHOWN]:
        _warn(note)
    if len(notes) > NOTES_SHOWN:
        _warn(f"{len(notes) - NOTES_SHOWN} more notes not shown")


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def _fail_out(error) -> int:
    print(f"error: out: {error}", file=sys.stderr)
    return EXIT_FAILURE


def _load_config(args) -> ScenarioConfig:
    if args.config:
        return load_scenario(args.config, args.set or [])
    return scenario_from_dict(apply_overrides({}, args.set or []))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else every CPU of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork(fn, *args) -> tuple[int, int] | None:
    """Fork a child that calls fn(*args) and writes the return value,
    pickled, to a pipe, then leaves with os._exit: status 0 once the value
    is written, else 1. Returns (child pid, read end of the pipe) for
    _join, or None with no child where os.fork is missing or fails or
    fewer than two CPUs are usable: the caller then calls fn itself. This
    is the one place hccasim forks; the CLI starts no thread, so it may."""
    if not hasattr(os, "fork") or _usable_cpus() < 2:
        return None
    import pickle  # only a command that forks pays for the import

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
            with open(w, "wb") as fh:
                pickle.dump(fn(*args), fh)
            status = 0
        finally:
            os._exit(status)
    os.close(w)  # else later children hold it open and the read never ends
    return pid, r


def _join(pid: int, r: int, who: str):
    """Read what the child _fork started sent on r, reap it and return
    fn's value. If the child ended without sending it, raises a
    SimulationError that names the child as who and says how it ended."""
    with open(r, "rb") as fh:
        data = fh.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise engine.SimulationError(f"{who} {how} before sending its results")
    import pickle

    return pickle.loads(data)


def _write_packets(report, path: str) -> OSError | None:
    """Write report's packet log CSV to path: None once it is written, else
    the OSError that stopped it."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            report.write_packets_csv(fh)
    except OSError as e:
        return e
    return None


def cmd_simulate(args) -> int:
    """Run one scenario and write packets.csv and summary.csv under
    args.out. A child that _fork starts writes packets.csv while this
    process computes the summary; where _fork starts none, this process
    writes it. The files are the same either way, and summary.csv is
    written only once packets.csv has been."""
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
    except OSError as e:
        return _fail_out(e)
    writer = _fork(_write_packets, report, packets_path)
    try:
        summary = metrics.summarize([report])
    finally:
        try:
            error = (_join(*writer, "packets.csv writer") if writer
                     else _write_packets(report, packets_path))
        except engine.SimulationError as e:
            error = e
    if error:
        return _fail_out(error)
    try:
        with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(summary)
    except OSError as e:
        return _fail_out(e)
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


def _run_cell(cfg: ScenarioConfig) -> tuple:
    """Run one sweep cell: its metrics.summary_row and its admission and
    traffic notes, all that summary.csv and the warnings need. A forked
    child pickles these back for its share rather than the whole reports."""
    report = engine.run(cfg)
    return metrics.summary_row(report), report.admission_notes + report.traffic_notes


def _deal(cells, shares: int) -> list[list[tuple[int, int]]]:
    """The (dispatch position, cell index) pairs of every cell, dealt into
    `shares` lists: cells with the most stations first, dealt back and
    forth (shares 0, 1, ..., 1, 0, 0, 1, ...) so that each share gets a
    like mix of large and small cells and none ends running a big cell
    alone."""
    order = sorted(range(len(cells)), key=lambda i: -cells[i].stations)
    dealt = [[] for _ in range(shares)]
    for k, i in enumerate(order):
        lap, j = divmod(k, shares)
        dealt[shares - 1 - j if lap % 2 else j].append((k, i))
    return dealt


def _run_share(cells, share) -> tuple[dict, tuple | None]:
    """_run_cell of each cell of share in turn: the results by cell index,
    and the (dispatch position, exception) of the first cell that raised,
    or None. The remaining cells of the share are not run."""
    done = {}
    for k, i in share:
        try:
            done[i] = _run_cell(cells[i])
        except Exception as e:  # handed to _run_cells, which raises it
            return done, (k, e)
    return done, None


def _run_cells(cells) -> list:
    """_run_cell of every cell, in cell order. The cells are dealt into one
    share per usable CPU; a child that _fork starts runs each share after
    the first, and this process runs the first itself, so no worker waits to
    start and no CPU sits idle. A share _fork starts no child for runs in
    this process after the first. Each share stops at its first failing
    cell; every child is reaped, then the error of the earliest failing
    cell in dispatch order is raised."""
    shares = _deal(cells, min(len(cells), _usable_cpus()))
    children = [(share, _fork(_run_share, cells, share)) for share in shares[1:]]
    outcomes = []
    try:
        outcomes.append(_run_share(cells, shares[0]))
        outcomes += [_run_share(cells, share) for share, child in children if not child]
    finally:
        for share, child in children:
            if child:
                try:
                    outcomes.append(_join(*child, "sweep worker"))
                except engine.SimulationError as e:
                    outcomes.append(({}, (share[0][0], e)))
    results, errors = {}, []
    for done, error in outcomes:
        results.update(done)
        if error:
            errors.append(error)
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return [results[i] for i in range(len(cells))]


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
        return _fail_out(e)
    # Station i replays the same traffic and TSPEC in every cell: its notes
    # repeat, and _warn_notes says each once.
    _warn_notes(n for _, notes in results for n in notes)
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
    """Set the scenario up as simulate does, in engine.Simulation, and stop
    before the first CAP: the same warnings, and the same error and exit
    code for what simulate refuses before it runs."""
    try:
        cfg = _load_config(args)
        warn = stations_warning(cfg)
        if warn:
            _warn(warn)
        sim = engine.Simulation(cfg)
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
