"""Child processes of the benchmark; each starts from a fresh interpreter.

    child.py setup --config Y [--sweep A..B LIST]
        Import hccasim, load the scenario and build every Simulation the
        command would run (one, or one per sweep cell), then print "ready"
        and exit without running a CAP. The parent times launch to "ready".

    child.py trace-cli --spans OUT -- <hccasim CLI arguments>
        Run the CLI in this process with spans around each layer's calls.

    child.py trace-cells --spans OUT --config Y --sweep A..B LIST
        Run every sweep cell serially in this process with spans on, so the
        engine layers of a sweep are visible (pool workers' spans are not).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def sweep_cells(config: str, stations: str, schedulers: str):
    from hccasim.cli import sweep_cells
    from hccasim.config import load_scenario

    lo, _, hi = stations.partition("..")
    return sweep_cells(load_scenario(config), range(int(lo), int(hi) + 1),
                       schedulers.split(","))


def report_attrs(report) -> dict:
    """Engine counts of one run, from the public SimReport fields."""
    attrs = {f.name: getattr(report.counters, f.name) for f in fields(report.counters)}
    attrs["generated"] = sum(t.generated for t in report.flows.values())
    attrs["queued_end"] = sum(t.queued_end for t in report.flows.values())
    attrs["conservation_failures"] = int(not report.conservation_ok())
    return attrs


def install(tracer):
    t = tracer
    t.span("hccasim.cli.main", "cli.main")
    t.span("hccasim.cli.load_scenario", "config.load_scenario")
    t.span("hccasim.cli.sweep_cells", "cli.sweep_cells")
    t.span("hccasim.cli._run_cells", "sweep.dispatch")
    t.span("hccasim.cli.ProcessPoolExecutor", "sweep.pool",
           attrs=lambda pool: {"workers": getattr(pool, "_max_workers", 0)})
    t.span("hccasim.engine.run", "engine.run", attrs=report_attrs)
    t.span("hccasim.engine.Simulation.__init__", "engine.init")
    t.span("hccasim.engine.Simulation.run", "engine.loop")
    t.span("hccasim.engine.synth_trace", "traffic.synth_trace",
           attrs=lambda trace: {"frames": len(trace)})
    t.span("hccasim.engine.arrivals", "traffic.arrivals")
    t.span("hccasim.engine.load_trace", "traffic.load_trace",
           attrs=lambda trace: {"frames": len(trace)})
    t.span("hccasim.engine.SimReport.packets_csv", "report.packets_csv",
           attrs=lambda text: {"bytes": len(text.encode())})
    t.span("hccasim.metrics.summarize", "metrics.summarize")
    for fn in ("adaptive_txop", "minimal_txop", "reference_txop"):
        t.leaf(f"hccasim.engine.{fn}", "sched.txop")
    for mod in ("phy", "sched"):
        t.count(f"hccasim.{mod}.tx_duration_ns", "phy.tx_duration")
        t.count(f"hccasim.{mod}.data_tx_time", "phy.data_tx_time")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="child.py")
    ap.add_argument("mode", choices=("setup", "trace-cli", "trace-cells"))
    ap.add_argument("--config")
    ap.add_argument("--sweep", nargs=2, metavar=("STATIONS", "SCHEDULERS"))
    ap.add_argument("--spans")
    argv = sys.argv[1:] if argv is None else list(argv)
    cut = argv.index("--") if "--" in argv else len(argv)
    args, cli_args = ap.parse_args(argv[:cut]), argv[cut + 1:]

    if args.mode == "setup":
        from hccasim import cli, engine  # noqa: F401  (the CLI's imports)
        from hccasim.config import load_scenario

        if args.sweep:
            cells = sweep_cells(args.config, *args.sweep)
        else:
            cells = [load_scenario(args.config)]
        sims = [engine.Simulation(c) for c in cells]
        print("ready", len(sims), flush=True)
        return 0

    from tracer import Tracer

    if args.mode == "trace-cli":
        from hccasim import cli

        tracer = Tracer(run_id=1)
        install(tracer)
        code = cli.main(cli_args)
        tracer.dump(args.spans, {"exit_code": code})
        return code

    from hccasim import engine

    cells = sweep_cells(args.config, *args.sweep)
    tracer = Tracer(run_id=2)
    install(tracer)
    for cell in cells:
        engine.run(cell)
    tracer.dump(args.spans, {"exit_code": 0})
    return 0


if __name__ == "__main__":
    sys.exit(main())
